//! Exact rational arithmetic for equilibrium computations.
//!
//! Nash-equilibrium probabilities and expected payoffs in the Tuple model
//! are rationals with small denominators (`1/δ`, `k/|E(D(tp))|`, `k·ν/|IS|`,
//! …). Verifying the characterization of Theorem 3.4 requires *exact*
//! equality tests between such quantities, which floating point cannot
//! provide. This crate supplies [`Ratio`], a reduced fraction with an `i64`
//! numerator and positive `i64` denominator whose arithmetic is carried out
//! in `i128` so intermediate products cannot overflow.
//!
//! # Examples
//!
//! ```
//! use defender_num::Ratio;
//!
//! let a = Ratio::new(1, 3);
//! let b = Ratio::new(1, 6);
//! assert_eq!(a + b, Ratio::new(1, 2));
//! assert_eq!((a + b).to_f64(), 0.5);
//! ```

#![warn(missing_docs, missing_debug_implementations)]

mod accum;
mod ratio;
pub mod rng;

pub use accum::{row_eliminate, row_scale_div, RatioAccum};
pub use ratio::{ParseRatioError, Ratio, RatioError};

/// Greatest common divisor of two non-negative integers (Euclid).
///
/// Defined so that `gcd(0, x) == x`; in particular `gcd(0, 0) == 0`.
///
/// # Examples
///
/// ```
/// assert_eq!(defender_num::gcd(12, 18), 6);
/// assert_eq!(defender_num::gcd(0, 7), 7);
/// ```
#[must_use]
pub fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        let r = a % b; // lint: allow(arith) loop guard: b != 0
        a = b;
        b = r;
    }
    a
}

/// Least common multiple of two non-negative integers.
///
/// # Panics
///
/// Panics if the result overflows `u128`.
///
/// # Examples
///
/// ```
/// assert_eq!(defender_num::lcm(4, 6), 12);
/// assert_eq!(defender_num::lcm(0, 5), 0);
/// ```
#[must_use]
pub fn lcm(a: u128, b: u128) -> u128 {
    if a == 0 || b == 0 {
        return 0;
    }
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gcd_basic() {
        assert_eq!(gcd(0, 0), 0);
        assert_eq!(gcd(1, 1), 1);
        assert_eq!(gcd(21, 14), 7);
        assert_eq!(gcd(14, 21), 7);
        assert_eq!(gcd(17, 5), 1);
        assert_eq!(gcd(100, 100), 100);
    }

    #[test]
    fn lcm_basic() {
        assert_eq!(lcm(0, 3), 0);
        assert_eq!(lcm(3, 0), 0);
        assert_eq!(lcm(6, 8), 24);
        assert_eq!(lcm(7, 7), 7);
        assert_eq!(lcm(5, 7), 35);
    }

    #[test]
    fn gcd_lcm_product_identity() {
        for a in 1u128..40 {
            for b in 1u128..40 {
                assert_eq!(gcd(a, b) * lcm(a, b), a * b, "a={a} b={b}");
            }
        }
    }
}
