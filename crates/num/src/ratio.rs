//! The [`Ratio`] type: a reduced `i64/i64` fraction with `i128` internals.

use core::cmp::Ordering;
use core::fmt;
use core::iter::{Product, Sum};
use core::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use core::str::FromStr;

use crate::gcd;

/// An exact rational number.
///
/// Invariants (maintained by every constructor and operation):
///
/// - the denominator is strictly positive;
/// - numerator and denominator are coprime;
/// - zero is represented canonically as `0/1`.
///
/// All arithmetic is performed with `i128` intermediates, so products of two
/// in-range components never overflow; the *result* is converted back to
/// `i64` components and the operation panics if the reduced result does not
/// fit (see the checked variants such as [`Ratio::checked_add`] for
/// non-panicking alternatives). Equilibrium quantities in this workspace
/// have denominators bounded by small polynomials of the graph size, so the
/// panicking operators are the ergonomic default.
///
/// # Examples
///
/// ```
/// use defender_num::Ratio;
///
/// let p = Ratio::new(2, 4);
/// assert_eq!(p.numer(), 1);
/// assert_eq!(p.denom(), 2);
/// assert_eq!(p * Ratio::from(3), Ratio::new(3, 2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ratio {
    num: i64,
    den: i64,
}

/// Error produced by checked [`Ratio`] constructors and operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RatioError {
    /// A denominator of zero was supplied.
    ZeroDenominator,
    /// The reduced result does not fit in `i64` components.
    Overflow,
    /// Division by a zero-valued rational.
    DivisionByZero,
}

impl fmt::Display for RatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RatioError::ZeroDenominator => write!(f, "denominator is zero"),
            RatioError::Overflow => write!(f, "reduced rational does not fit in 64-bit components"),
            RatioError::DivisionByZero => write!(f, "division by zero rational"),
        }
    }
}

impl std::error::Error for RatioError {}

/// Reduce an `i128` fraction and convert it to `Ratio`, reporting overflow.
pub(crate) fn make(num: i128, den: i128) -> Result<Ratio, RatioError> {
    if den == 0 {
        return Err(RatioError::ZeroDenominator);
    }
    let sign = if (num < 0) ^ (den < 0) { -1i128 } else { 1i128 };
    let num_abs = num.unsigned_abs();
    let den_abs = den.unsigned_abs();
    if num_abs == 0 {
        return Ok(Ratio { num: 0, den: 1 });
    }
    let g = gcd(num_abs, den_abs);
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "g = gcd with num_abs != 0 (early return above), so g >= 1"
    )]
    let num_red = num_abs / g;
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "g = gcd with num_abs != 0 (early return above), so g >= 1"
    )]
    let den_red = den_abs / g;
    let num_i = i128::try_from(num_red).map_err(|_| RatioError::Overflow)? * sign;
    let num64 = i64::try_from(num_i).map_err(|_| RatioError::Overflow)?;
    let den64 = i64::try_from(den_red).map_err(|_| RatioError::Overflow)?;
    Ok(Ratio {
        num: num64,
        den: den64,
    })
}

impl Ratio {
    /// The rational number zero (`0/1`).
    pub const ZERO: Ratio = Ratio { num: 0, den: 1 };
    /// The rational number one (`1/1`).
    pub const ONE: Ratio = Ratio { num: 1, den: 1 };

    /// Creates the reduced rational `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use defender_num::Ratio;
    /// assert_eq!(Ratio::new(-4, -6), Ratio::new(2, 3));
    /// ```
    #[must_use]
    pub fn new(num: i64, den: i64) -> Ratio {
        #[expect(
            clippy::expect_used,
            reason = "documented contract; checked_new is the fallible form"
        )]
        Ratio::checked_new(num, den).expect("Ratio::new: denominator must be non-zero")
    }

    /// Creates the reduced rational `num/den`, or an error if `den == 0`.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::ZeroDenominator`] when `den == 0`.
    ///
    /// # Examples
    ///
    /// ```
    /// use defender_num::{Ratio, RatioError};
    /// assert_eq!(Ratio::checked_new(1, 0), Err(RatioError::ZeroDenominator));
    /// ```
    pub fn checked_new(num: i64, den: i64) -> Result<Ratio, RatioError> {
        make(i128::from(num), i128::from(den))
    }

    /// Creates a rational from an integer.
    ///
    /// # Examples
    ///
    /// ```
    /// use defender_num::Ratio;
    /// assert_eq!(Ratio::from_integer(5), Ratio::new(5, 1));
    /// ```
    #[must_use]
    pub const fn from_integer(value: i64) -> Ratio {
        Ratio { num: value, den: 1 }
    }

    /// The reduced numerator (sign-carrying).
    #[must_use]
    pub const fn numer(self) -> i64 {
        self.num
    }

    /// The reduced denominator (always strictly positive).
    #[must_use]
    pub const fn denom(self) -> i64 {
        self.den
    }

    /// Whether this rational is exactly zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.num == 0
    }

    /// Whether this rational is an integer (denominator one).
    #[must_use]
    pub const fn is_integer(self) -> bool {
        self.den == 1
    }

    /// Whether this rational lies in the closed interval `[0, 1]`.
    ///
    /// Useful as a sanity check for probabilities.
    #[must_use]
    pub fn is_probability(self) -> bool {
        self >= Ratio::ZERO && self <= Ratio::ONE
    }

    /// Absolute value.
    ///
    /// # Panics
    ///
    /// Panics if the numerator is `i64::MIN`, whose magnitude does not fit.
    ///
    /// # Examples
    ///
    /// ```
    /// use defender_num::Ratio;
    /// assert_eq!(Ratio::new(-3, 4).abs(), Ratio::new(3, 4));
    /// ```
    #[must_use]
    pub fn abs(self) -> Ratio {
        Ratio {
            #[expect(
                clippy::expect_used,
                reason = "documented contract: overflow aborts the run, as for the operators"
            )]
            num: self
                .num
                .checked_abs()
                .expect("Ratio absolute value overflow"),
            den: self.den,
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::DivisionByZero`] if `self` is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use defender_num::Ratio;
    /// assert_eq!(Ratio::new(2, 3).recip().unwrap(), Ratio::new(3, 2));
    /// ```
    pub fn recip(self) -> Result<Ratio, RatioError> {
        if self.num == 0 {
            return Err(RatioError::DivisionByZero);
        }
        make(i128::from(self.den), i128::from(self.num))
    }

    /// Checked addition.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::Overflow`] if the reduced sum does not fit.
    pub fn checked_add(self, rhs: Ratio) -> Result<Ratio, RatioError> {
        let num =
            i128::from(self.num) * i128::from(rhs.den) + i128::from(rhs.num) * i128::from(self.den);
        make(num, i128::from(self.den) * i128::from(rhs.den))
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::Overflow`] if the reduced difference does not fit.
    pub fn checked_sub(self, rhs: Ratio) -> Result<Ratio, RatioError> {
        let num =
            i128::from(self.num) * i128::from(rhs.den) - i128::from(rhs.num) * i128::from(self.den);
        make(num, i128::from(self.den) * i128::from(rhs.den))
    }

    /// Checked multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::Overflow`] if the reduced product does not fit.
    pub fn checked_mul(self, rhs: Ratio) -> Result<Ratio, RatioError> {
        make(
            i128::from(self.num) * i128::from(rhs.num),
            i128::from(self.den) * i128::from(rhs.den),
        )
    }

    /// Checked division.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::DivisionByZero`] if `rhs` is zero, or
    /// [`RatioError::Overflow`] if the reduced quotient does not fit.
    pub fn checked_div(self, rhs: Ratio) -> Result<Ratio, RatioError> {
        if rhs.num == 0 {
            return Err(RatioError::DivisionByZero);
        }
        make(
            i128::from(self.num) * i128::from(rhs.den),
            i128::from(self.den) * i128::from(rhs.num),
        )
    }

    /// Raises to a (possibly negative) integer power.
    ///
    /// # Errors
    ///
    /// Returns [`RatioError::DivisionByZero`] for `0^negative`, and
    /// [`RatioError::Overflow`] if any intermediate does not fit.
    ///
    /// # Examples
    ///
    /// ```
    /// use defender_num::Ratio;
    /// assert_eq!(Ratio::new(2, 3).pow(2).unwrap(), Ratio::new(4, 9));
    /// assert_eq!(Ratio::new(2, 3).pow(-1).unwrap(), Ratio::new(3, 2));
    /// ```
    pub fn pow(self, exp: i32) -> Result<Ratio, RatioError> {
        let base = if exp < 0 { self.recip()? } else { self };
        let mut acc = Ratio::ONE;
        for _ in 0..exp.unsigned_abs() {
            acc = acc.checked_mul(base)?;
        }
        Ok(acc)
    }

    /// Nearest `f64` approximation (for reporting only — never for logic).
    ///
    /// # Examples
    ///
    /// ```
    /// use defender_num::Ratio;
    /// assert_eq!(Ratio::new(1, 4).to_f64(), 0.25);
    /// ```
    #[must_use]
    #[expect(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        reason = "reporting-only conversion, excluded from all NE logic"
    )]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// The smaller of `self` and `other`.
    #[must_use]
    pub fn min(self, other: Ratio) -> Ratio {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of `self` and `other`.
    #[must_use]
    pub fn max(self, other: Ratio) -> Ratio {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Default for Ratio {
    fn default() -> Ratio {
        Ratio::ZERO
    }
}

impl From<i64> for Ratio {
    fn from(value: i64) -> Ratio {
        Ratio::from_integer(value)
    }
}

impl From<i32> for Ratio {
    fn from(value: i32) -> Ratio {
        Ratio::from_integer(i64::from(value))
    }
}

impl From<u32> for Ratio {
    fn from(value: u32) -> Ratio {
        Ratio::from_integer(i64::from(value))
    }
}

impl From<usize> for Ratio {
    /// Converts a count to a rational.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds `i64::MAX` (impossible for the graph sizes
    /// this workspace handles).
    fn from(value: usize) -> Ratio {
        #[expect(
            clippy::expect_used,
            reason = "documented contract: counts here are graph sizes, far below i64::MAX"
        )]
        Ratio::from_integer(i64::try_from(value).expect("count fits in i64"))
    }
}

impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        #[expect(
            clippy::expect_used,
            reason = "operator contract: overflow aborts the run; checked_add is the fallible form"
        )]
        self.checked_add(rhs).expect("Ratio addition overflow")
    }
}

impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        #[expect(
            clippy::expect_used,
            reason = "operator contract: overflow aborts the run; checked_sub is the fallible form"
        )]
        self.checked_sub(rhs).expect("Ratio subtraction overflow")
    }
}

impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        #[expect(
            clippy::expect_used,
            reason = "operator contract: overflow aborts the run; checked_mul is the fallible form"
        )]
        self.checked_mul(rhs)
            .expect("Ratio multiplication overflow")
    }
}

impl Div for Ratio {
    type Output = Ratio;
    fn div(self, rhs: Ratio) -> Ratio {
        #[expect(
            clippy::expect_used,
            reason = "operator contract; checked_div is the fallible form"
        )]
        self.checked_div(rhs)
            .expect("Ratio division by zero or overflow")
    }
}

impl Neg for Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        Ratio {
            #[expect(
                clippy::expect_used,
                reason = "operator contract: overflow aborts the run; checked_sub is the fallible form"
            )]
            num: self.num.checked_neg().expect("Ratio negation overflow"),
            den: self.den,
        }
    }
}

impl AddAssign for Ratio {
    fn add_assign(&mut self, rhs: Ratio) {
        *self = *self + rhs;
    }
}

impl SubAssign for Ratio {
    fn sub_assign(&mut self, rhs: Ratio) {
        *self = *self - rhs;
    }
}

impl MulAssign for Ratio {
    fn mul_assign(&mut self, rhs: Ratio) {
        *self = *self * rhs;
    }
}

impl DivAssign for Ratio {
    fn div_assign(&mut self, rhs: Ratio) {
        // divisor nonzero: delegates to Div; a zero divisor panics there by contract
        *self = *self / rhs;
    }
}

impl Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.copied().sum()
    }
}

impl Product for Ratio {
    fn product<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::ONE, Mul::mul)
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Ratio) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Ratio) -> Ordering {
        // Denominators are positive, so cross-multiplication preserves order;
        // i128 intermediates cannot overflow for i64 components.
        let lhs = i128::from(self.num) * i128::from(other.den);
        let rhs = i128::from(other.num) * i128::from(self.den);
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ratio({self})")
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Error returned when parsing a [`Ratio`] from a string fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseRatioError {
    message: String,
}

impl fmt::Display for ParseRatioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rational literal: {}", self.message)
    }
}

impl std::error::Error for ParseRatioError {}

impl FromStr for Ratio {
    type Err = ParseRatioError;

    /// Parses `"a"` or `"a/b"` with optional surrounding whitespace.
    ///
    /// # Examples
    ///
    /// ```
    /// use defender_num::Ratio;
    /// let r: Ratio = "3/6".parse()?;
    /// assert_eq!(r, Ratio::new(1, 2));
    /// # Ok::<(), defender_num::ParseRatioError>(())
    /// ```
    fn from_str(s: &str) -> Result<Ratio, ParseRatioError> {
        let s = s.trim();
        let err = |message: &str| ParseRatioError {
            message: message.to_owned(),
        };
        match s.split_once('/') {
            None => {
                let num: i64 = s.parse().map_err(|_| err("numerator is not an integer"))?;
                Ok(Ratio::from_integer(num))
            }
            Some((numer, denom)) => {
                let num: i64 = numer
                    .trim()
                    .parse()
                    .map_err(|_| err("numerator is not an integer"))?;
                let den: i64 = denom
                    .trim()
                    .parse()
                    .map_err(|_| err("denominator is not an integer"))?;
                Ratio::checked_new(num, den).map_err(|e| err(&e.to_string()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_reduces() {
        assert_eq!(Ratio::new(2, 4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(-2, 4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(2, -4), Ratio::new(-1, 2));
        assert_eq!(Ratio::new(-2, -4), Ratio::new(1, 2));
        assert_eq!(Ratio::new(0, 7).denom(), 1);
    }

    #[test]
    fn zero_denominator_rejected() {
        assert_eq!(Ratio::checked_new(1, 0), Err(RatioError::ZeroDenominator));
    }

    #[test]
    #[should_panic(expected = "denominator must be non-zero")]
    fn new_panics_on_zero_denominator() {
        let _ = Ratio::new(1, 0);
    }

    #[test]
    fn arithmetic_basics() {
        let a = Ratio::new(1, 2);
        let b = Ratio::new(1, 3);
        assert_eq!(a + b, Ratio::new(5, 6));
        assert_eq!(a - b, Ratio::new(1, 6));
        assert_eq!(a * b, Ratio::new(1, 6));
        assert_eq!(a / b, Ratio::new(3, 2));
        assert_eq!(-a, Ratio::new(-1, 2));
    }

    #[test]
    fn assignment_operators() {
        let mut r = Ratio::new(1, 2);
        r += Ratio::new(1, 2);
        assert_eq!(r, Ratio::ONE);
        r -= Ratio::new(1, 4);
        assert_eq!(r, Ratio::new(3, 4));
        r *= Ratio::new(4, 3);
        assert_eq!(r, Ratio::ONE);
        r /= Ratio::new(1, 2);
        assert_eq!(r, Ratio::from(2));
    }

    #[test]
    fn division_by_zero() {
        assert_eq!(
            Ratio::ONE.checked_div(Ratio::ZERO),
            Err(RatioError::DivisionByZero)
        );
        assert_eq!(Ratio::ZERO.recip(), Err(RatioError::DivisionByZero));
    }

    #[test]
    #[expect(
        clippy::disallowed_types,
        clippy::disallowed_methods,
        reason = "shows that f64 cannot tell two close ratios apart"
    )]
    fn ordering_is_exact() {
        assert!(Ratio::new(1, 3) < Ratio::new(1, 2));
        assert!(Ratio::new(-1, 2) < Ratio::new(-1, 3));
        assert!(Ratio::new(2, 4) == Ratio::new(1, 2));
        assert!(Ratio::new(7, 8) > Ratio::new(6, 7));
        // Large components where f64 comparison would be wrong:
        let a = Ratio::new(i64::MAX, i64::MAX - 1);
        let b = Ratio::new(i64::MAX - 1, i64::MAX - 2);
        assert!(a < b);
        assert!(
            (a.to_f64() - b.to_f64()).abs() < f64::EPSILON,
            "f64 cannot tell them apart"
        );
    }

    #[test]
    fn min_max() {
        let a = Ratio::new(1, 3);
        let b = Ratio::new(1, 2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn sums_and_products() {
        let parts: Vec<Ratio> = (1..=4).map(|i| Ratio::new(1, i)).collect();
        assert_eq!(parts.iter().sum::<Ratio>(), Ratio::new(25, 12));
        assert_eq!(parts.into_iter().product::<Ratio>(), Ratio::new(1, 24));
    }

    #[test]
    fn probability_check() {
        assert!(Ratio::ZERO.is_probability());
        assert!(Ratio::ONE.is_probability());
        assert!(Ratio::new(3, 7).is_probability());
        assert!(!Ratio::new(-1, 7).is_probability());
        assert!(!Ratio::new(8, 7).is_probability());
    }

    #[test]
    fn powers() {
        assert_eq!(Ratio::new(2, 3).pow(0).unwrap(), Ratio::ONE);
        assert_eq!(Ratio::new(2, 3).pow(3).unwrap(), Ratio::new(8, 27));
        assert_eq!(Ratio::new(2, 3).pow(-2).unwrap(), Ratio::new(9, 4));
        assert_eq!(Ratio::ZERO.pow(-1), Err(RatioError::DivisionByZero));
    }

    #[test]
    fn display_and_parse_round_trip() {
        for r in [
            Ratio::new(3, 4),
            Ratio::from(-7),
            Ratio::ZERO,
            Ratio::new(-9, 5),
        ] {
            let shown = r.to_string();
            let back: Ratio = shown.parse().unwrap();
            assert_eq!(back, r, "round-trip through {shown}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Ratio>().is_err());
        assert!("a/b".parse::<Ratio>().is_err());
        assert!("1/0".parse::<Ratio>().is_err());
        assert!("1/2/3".parse::<Ratio>().is_err());
        assert_eq!(" 4 / 6 ".parse::<Ratio>().unwrap(), Ratio::new(2, 3));
    }

    #[test]
    fn overflow_is_detected_not_wrapped() {
        let big = Ratio::new(i64::MAX, 1);
        assert_eq!(big.checked_add(big), Err(RatioError::Overflow));
        assert_eq!(big.checked_mul(big), Err(RatioError::Overflow));
        // But reducible near-overflow results still succeed:
        #[expect(
            clippy::integer_division_remainder_used,
            reason = "constant divisor: picks a value near the overflow edge"
        )]
        let half_big = Ratio::new(i64::MAX / 2, 1);
        assert!(half_big.checked_add(half_big).is_ok());
    }

    #[test]
    fn checked_sub_reports_negation_overflow() {
        let min = Ratio::from_integer(i64::MIN);
        assert_eq!(Ratio::ZERO.checked_sub(min), Err(RatioError::Overflow));
        assert_eq!(Ratio::ONE.checked_sub(min), Err(RatioError::Overflow));
        assert_eq!(Ratio::from(-1).checked_sub(min), Ok(Ratio::from(i64::MAX)));
    }

    #[test]
    #[should_panic(expected = "Ratio negation overflow")]
    fn negating_i64_min_panics() {
        let _ = -Ratio::from_integer(i64::MIN);
    }

    #[test]
    #[should_panic(expected = "Ratio absolute value overflow")]
    fn abs_of_i64_min_panics() {
        let _ = Ratio::from_integer(i64::MIN).abs();
    }

    #[test]
    fn debug_is_nonempty() {
        assert_eq!(format!("{:?}", Ratio::new(1, 2)), "Ratio(1/2)");
        assert_eq!(format!("{:?}", Ratio::ZERO), "Ratio(0)");
    }

    #[test]
    #[expect(clippy::disallowed_methods, reason = "tests the reporting conversion")]
    fn conversions() {
        assert_eq!(Ratio::from(5i64), Ratio::new(5, 1));
        assert_eq!(Ratio::from(5i32), Ratio::new(5, 1));
        assert_eq!(Ratio::from(5u32), Ratio::new(5, 1));
        assert_eq!(Ratio::from(5usize), Ratio::new(5, 1));
        assert_eq!(Ratio::new(9, 3).to_f64(), 3.0);
        assert!(Ratio::new(9, 3).is_integer());
        assert!(!Ratio::new(9, 4).is_integer());
    }
}
