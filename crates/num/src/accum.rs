//! Deferred-reduction kernels for hot rational arithmetic.
//!
//! Every [`Ratio`](crate::Ratio) operation normally pays one gcd to keep
//! the result reduced. Long reductions (dot products, expected-payoff
//! sums, Gauss–Jordan row updates) do not need the intermediates reduced —
//! only the final value. [`RatioAccum`] keeps an *unreduced* `i128`
//! fraction and reduces exactly once in [`RatioAccum::finish`]; the slice
//! kernels [`row_eliminate`] and [`row_scale_div`] fuse the two gcds of a
//! `value -= factor * pivot` update into one, with a den-1 / zero-term
//! fast path that skips gcd entirely.
//!
//! The contract is *bit-identical results*: every kernel computes the same
//! exact rational the naive per-op sequence would (both reduce to the
//! canonical form, so equality is automatic), and overflow behavior is no
//! stricter — the accumulator renormalizes on `i128` pressure, giving it
//! more headroom than the naive `i64`-per-step path, and panics only where
//! the naive path would already be at the edge of panicking.
//!
//! Two counters quantify the win (flushed in batch, once per kernel call,
//! so parallel loops do not contend on the atomics):
//!
//! - `num.gcd_skipped` — element operations completed without running any
//!   gcd (deferred merge, zero term, or integer fast path);
//! - `num.accum_reductions` — gcd reductions the kernels actually paid
//!   (finishes, overflow renormalizations, and fused single-gcd updates).

use crate::ratio::make;
use crate::{gcd, Ratio};

/// Flush batched tallies to the global counter registry.
fn flush(gcd_skipped: u64, reductions: u64) {
    if gcd_skipped > 0 {
        defender_obs::counter!("num.gcd_skipped").add(gcd_skipped);
    }
    if reductions > 0 {
        defender_obs::counter!("num.accum_reductions").add(reductions);
    }
}

/// An unreduced rational accumulator: gcd-reduces once per reduction
/// instead of once per operation.
///
/// # Examples
///
/// ```
/// use defender_num::{Ratio, RatioAccum};
///
/// let mut acc = RatioAccum::new();
/// acc.add(Ratio::new(1, 3));
/// acc.add_mul(Ratio::new(1, 2), Ratio::new(1, 3));
/// assert_eq!(acc.finish(), Ratio::new(1, 2));
/// ```
#[derive(Debug)]
pub struct RatioAccum {
    num: i128,
    den: i128,
    gcd_skipped: u64,
    reductions: u64,
}

impl Default for RatioAccum {
    fn default() -> RatioAccum {
        RatioAccum::new()
    }
}

impl RatioAccum {
    /// A fresh accumulator holding zero.
    #[must_use]
    pub fn new() -> RatioAccum {
        RatioAccum {
            num: 0,
            den: 1,
            gcd_skipped: 0,
            reductions: 0,
        }
    }

    /// Reduce the running fraction in place. Returns `false` when it was
    /// already reduced (no more headroom to win back).
    fn renormalize(&mut self) -> bool {
        self.reductions += 1;
        let g = gcd(self.num.unsigned_abs(), self.den.unsigned_abs());
        if g <= 1 {
            return false;
        }
        #[expect(
            clippy::expect_used,
            reason = "g <= min(|num|,|den|) <= 2^127 only when both are i128::MIN, which den > 0 excludes"
        )]
        let g = i128::try_from(g).expect("gcd of i128 magnitudes fits i128");
        #[expect(
            clippy::integer_division_remainder_used,
            reason = "g = gcd with nonzero den, so g >= 1"
        )]
        let reduced = (self.num / g, self.den / g);
        (self.num, self.den) = reduced;
        true
    }

    /// Merge the unreduced term `tn/td` (with `td > 0`) into the running
    /// fraction without reducing, renormalizing on overflow.
    fn merge(&mut self, tn: i128, td: i128) {
        if tn == 0 {
            self.gcd_skipped += 1;
            return;
        }
        loop {
            if td == self.den {
                if let Some(n) = self.num.checked_add(tn) {
                    self.num = n;
                    self.gcd_skipped += 1;
                    return;
                }
            } else if let (Some(a), Some(b), Some(d)) = (
                self.num.checked_mul(td),
                tn.checked_mul(self.den),
                self.den.checked_mul(td),
            ) {
                if let Some(n) = a.checked_add(b) {
                    self.num = n;
                    self.den = d;
                    self.gcd_skipped += 1;
                    return;
                }
            }
            assert!(
                self.renormalize(),
                "RatioAccum overflow: accumulated value exceeds i128 even when reduced"
            );
        }
    }

    /// Adds `r` to the accumulator (no gcd).
    pub fn add(&mut self, r: Ratio) {
        self.merge(i128::from(r.numer()), i128::from(r.denom()));
    }

    /// Adds the product `a * b` to the accumulator (no gcd: the product is
    /// merged unreduced — `i64` components cannot overflow an `i128`
    /// multiply).
    pub fn add_mul(&mut self, a: Ratio, b: Ratio) {
        let tn = i128::from(a.numer()) * i128::from(b.numer());
        let td = i128::from(a.denom()) * i128::from(b.denom());
        self.merge(tn, td);
    }

    /// Subtracts `r` from the accumulator (no gcd).
    pub fn sub(&mut self, r: Ratio) {
        self.merge(i128::from(-r.numer()), i128::from(r.denom()));
    }

    /// Reduces once and returns the exact total, flushing the batched
    /// `num.*` counters.
    ///
    /// # Panics
    ///
    /// Panics if the reduced total does not fit in `i64` components — the
    /// same condition under which the naive per-op path panics.
    #[must_use]
    pub fn finish(mut self) -> Ratio {
        self.reductions += 1;
        #[expect(
            clippy::expect_used,
            reason = "documented # Panics overflow contract, same as the per-op Ratio path"
        )]
        let out = make(self.num, self.den).expect("RatioAccum total fits in 64-bit components");
        flush(self.gcd_skipped, self.reductions);
        out
    }
}

impl Ratio {
    /// Exact dot product `Σ xs[i] · ys[i]` with one gcd at the end.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or the total overflows.
    ///
    /// # Examples
    ///
    /// ```
    /// use defender_num::Ratio;
    ///
    /// let xs = [Ratio::new(1, 2), Ratio::new(1, 3)];
    /// let ys = [Ratio::new(1, 3), Ratio::new(1, 2)];
    /// assert_eq!(Ratio::dot(&xs, &ys), Ratio::new(1, 3));
    /// ```
    #[must_use]
    pub fn dot(xs: &[Ratio], ys: &[Ratio]) -> Ratio {
        assert_eq!(xs.len(), ys.len(), "dot product length mismatch");
        let mut acc = RatioAccum::new();
        for (&x, &y) in xs.iter().zip(ys) {
            acc.add_mul(x, y);
        }
        acc.finish()
    }

    /// Exact dot product over an iterator of `(x, y)` pairs with one gcd
    /// at the end.
    #[must_use]
    pub fn dot_iter(pairs: impl IntoIterator<Item = (Ratio, Ratio)>) -> Ratio {
        let mut acc = RatioAccum::new();
        for (x, y) in pairs {
            acc.add_mul(x, y);
        }
        acc.finish()
    }

    /// Exact sum with one gcd at the end (a deferred-reduction alternative
    /// to the per-op `Sum` impl).
    #[must_use]
    pub fn sum_iter(iter: impl IntoIterator<Item = Ratio>) -> Ratio {
        let mut acc = RatioAccum::new();
        for r in iter {
            acc.add(r);
        }
        acc.finish()
    }
}

/// Gauss–Jordan row update `row[j] -= factor * pivot[j]`, fusing the two
/// gcds of the naive multiply-then-subtract into one per element (zero per
/// element on the zero-term and all-integer fast paths).
///
/// Bit-identical to the naive loop: both produce the canonical reduced
/// value of the same exact rational.
///
/// # Panics
///
/// Panics if the slices differ in length or an element update overflows
/// `i64` components (as the naive path would).
pub fn row_eliminate(row: &mut [Ratio], factor: Ratio, pivot: &[Ratio]) {
    assert_eq!(row.len(), pivot.len(), "row elimination length mismatch");
    let (fn_, fd) = (i128::from(factor.numer()), i128::from(factor.denom()));
    let mut gcd_skipped = 0u64;
    let mut reductions = 0u64;
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics overflow contract, same as the per-op Ratio path"
    )]
    for (value, &pv) in row.iter_mut().zip(pivot) {
        let tn = fn_ * i128::from(pv.numer());
        if tn == 0 {
            gcd_skipped += 1;
            continue;
        }
        let td = fd * i128::from(pv.denom());
        let (vn, vd) = (i128::from(value.numer()), i128::from(value.denom()));
        if vd == 1 && td == 1 {
            // Integer fast path: no gcd at all.
            if let Some(n) = vn.checked_sub(tn) {
                if let Ok(n64) = i64::try_from(n) {
                    *value = Ratio::from_integer(n64);
                    gcd_skipped += 1;
                    continue;
                }
            }
        }
        // Fused general path: one gcd instead of two. `vn·td`, `tn·vd` and
        // `vd·td` all fit in i128 for i64 components.
        *value = make(vn * td - tn * vd, vd * td).expect("row update fits in 64-bit components");
        reductions += 1;
    }
    flush(gcd_skipped, reductions);
}

/// Row normalization `row[j] /= pivot`, with zero-term and unit-pivot fast
/// paths and batched counters.
///
/// # Panics
///
/// Panics if `pivot` is zero or an element overflows.
pub fn row_scale_div(row: &mut [Ratio], pivot: Ratio) {
    assert!(!pivot.is_zero(), "row normalization by zero pivot");
    if pivot == Ratio::ONE {
        flush(row.len() as u64, 0);
        return;
    }
    let (pn, pd) = (i128::from(pivot.numer()), i128::from(pivot.denom()));
    let mut gcd_skipped = 0u64;
    let mut reductions = 0u64;
    #[expect(
        clippy::expect_used,
        reason = "documented # Panics overflow contract, same as the per-op Ratio path"
    )]
    for value in row.iter_mut() {
        if value.is_zero() {
            gcd_skipped += 1;
            continue;
        }
        let (vn, vd) = (i128::from(value.numer()), i128::from(value.denom()));
        *value = make(vn * pd, vd * pn).expect("row normalization fits in 64-bit components");
        reductions += 1;
    }
    flush(gcd_skipped, reductions);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    #[test]
    fn accum_matches_naive_sum() {
        let parts: Vec<Ratio> = (1..=9).map(|i| r(1, i)).collect();
        let naive: Ratio = parts.iter().sum();
        let mut acc = RatioAccum::new();
        for &p in &parts {
            acc.add(p);
        }
        assert_eq!(acc.finish(), naive);
        assert_eq!(Ratio::sum_iter(parts.iter().copied()), naive);
    }

    #[test]
    fn accum_add_mul_and_sub() {
        let mut acc = RatioAccum::new();
        acc.add_mul(r(2, 3), r(3, 4));
        acc.sub(r(1, 4));
        assert_eq!(acc.finish(), r(1, 4));
    }

    #[test]
    fn dot_matches_naive() {
        let xs = [r(1, 2), r(-2, 3), r(5, 1), Ratio::ZERO];
        let ys = [r(4, 7), r(3, 5), r(1, 10), r(9, 2)];
        let naive: Ratio = xs.iter().zip(&ys).map(|(&x, &y)| x * y).sum();
        assert_eq!(Ratio::dot(&xs, &ys), naive);
        assert_eq!(Ratio::dot_iter(xs.iter().copied().zip(ys)), naive);
    }

    #[test]
    fn accum_renormalizes_instead_of_overflowing() {
        // Repeatedly adding 1/3 keeps the unreduced denominator growing as
        // powers of three only until the i128 limit, where renormalization
        // must collapse it back; the exact total survives.
        let mut acc = RatioAccum::new();
        let third = r(1, 3);
        for _ in 0..200 {
            acc.add(third);
        }
        assert_eq!(acc.finish(), r(200, 3));
    }

    #[test]
    fn accum_handles_big_magnitudes_like_naive() {
        #[expect(
            clippy::integer_division_remainder_used,
            reason = "constant divisor: picks a value near the overflow edge"
        )]
        let big = Ratio::from(i64::MAX / 4);
        let mut acc = RatioAccum::new();
        acc.add(big);
        acc.add(big);
        assert_eq!(acc.finish(), big + big);
    }

    #[test]
    fn row_eliminate_matches_naive() {
        let pivot = [r(1, 1), r(2, 3), Ratio::ZERO, r(-7, 5), r(4, 1)];
        let factor = r(-3, 2);
        let original = [r(5, 1), r(1, 3), r(2, 7), Ratio::ZERO, r(9, 4)];
        let mut kernel = original;
        row_eliminate(&mut kernel, factor, &pivot);
        let naive: Vec<Ratio> = original
            .iter()
            .zip(&pivot)
            .map(|(&v, &p)| v - factor * p)
            .collect();
        assert_eq!(kernel.to_vec(), naive);
    }

    #[test]
    fn row_scale_div_matches_naive() {
        let original = [r(6, 1), Ratio::ZERO, r(-3, 4), r(1, 9)];
        for pivot in [r(3, 2), Ratio::ONE, r(-2, 1)] {
            let mut kernel = original;
            row_scale_div(&mut kernel, pivot);
            let naive: Vec<Ratio> = original.iter().map(|&v| v / pivot).collect();
            assert_eq!(kernel.to_vec(), naive, "pivot {pivot}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_checks_lengths() {
        let _ = Ratio::dot(&[Ratio::ONE], &[]);
    }

    #[test]
    #[should_panic(expected = "zero pivot")]
    fn scale_div_rejects_zero_pivot() {
        row_scale_div(&mut [Ratio::ONE], Ratio::ZERO);
    }
}
