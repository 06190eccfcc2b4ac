//! A tiny, dependency-free deterministic PRNG (xorshift64* seeded through
//! splitmix64).
//!
//! The workspace must build with **no network access**, so it cannot pull
//! the `rand` crate; everything random in this repository — seeded graph
//! families, Monte-Carlo simulation, randomized tests — only needs a fast,
//! reproducible 64-bit generator, which this module vendors in ~100 lines.
//! It is **not** cryptographically secure and must never be used for
//! security decisions; it exists to make experiments and property tests
//! deterministic per seed across platforms.
//!
//! # Examples
//!
//! ```
//! use defender_num::rng::{Rng, StdRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let die = rng.gen_range(1..7);
//! assert!((1..7).contains(&die));
//! let p = rng.gen_f64();
//! assert!((0.0..1.0).contains(&p));
//! ```

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::float_arithmetic,
    reason = "Uniform f64 sampling for experiment drivers only."
)]

use core::ops::Range;

/// A source of uniform pseudo-random 64-bit words, with derived helpers.
///
/// Mirrors the tiny slice of the `rand` crate API this workspace used:
/// [`gen_range`](Rng::gen_range), [`gen_bool`](Rng::gen_bool),
/// [`gen_f64`](Rng::gen_f64), [`shuffle`](Rng::shuffle) and
/// [`choose`](Rng::choose) are all default methods over
/// [`next_u64`](Rng::next_u64), so generic code can stay written against
/// `R: Rng + ?Sized`.
pub trait Rng {
    /// The next raw 64-bit word of the stream.
    fn next_u64(&mut self) -> u64;

    /// A uniform `f64` in `[0, 1)` with 53-bit granularity.
    fn gen_f64(&mut self) -> f64 {
        // Top 53 bits scaled into the unit interval.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A uniform `usize` in `[range.start, range.end)`.
    ///
    /// The tiny modulo bias (< 2⁻⁴⁰ for any span this workspace draws) is
    /// irrelevant for seeded experiments and randomized tests.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[expect(
        clippy::integer_division_remainder_used,
        clippy::cast_possible_truncation,
        reason = "span >= 1 past the assert, and the remainder is below span, a usize length"
    )]
    fn gen_range(&mut self, range: Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range needs a non-empty range");
        let span = (range.end - range.start) as u64;
        range.start + (self.next_u64() % span) as usize
    }

    /// Fisher–Yates shuffle of `slice` in place.
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// A uniformly chosen element of `slice`, or `None` when empty.
    fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            slice.get(self.gen_range(0..slice.len()))
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// The workspace's standard generator: xorshift64* over a splitmix64-mixed
/// seed (so nearby seeds diverge immediately and seed 0 is legal).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XorShiftRng {
    state: u64,
}

/// Alias matching the name the workspace historically imported from `rand`.
pub type StdRng = XorShiftRng;

impl XorShiftRng {
    /// Builds a generator from a 64-bit seed; every seed (including 0) is
    /// valid and yields an independent-looking stream.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> XorShiftRng {
        // splitmix64 finalizer: guarantees a non-zero, well-mixed state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShiftRng {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }
}

impl Rng for XorShiftRng {
    fn next_u64(&mut self) -> u64 {
        // xorshift64*: period 2⁶⁴ − 1, passes SmallCrush — ample here.
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_ne!(rng.next_u64(), 0, "state must never be the fixed point");
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_everything() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.gen_range(5..15);
            assert!((5..15).contains(&v));
            seen[v - 5] = true;
        }
        assert!(seen.iter().all(|&s| s), "1000 draws cover all 10 values");
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let u = rng.gen_f64();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 1/2");
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "{hits} hits at p = 0.3");
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "overwhelmingly unlikely to be identity");
    }

    #[test]
    fn choose_covers_slice() {
        let mut rng = StdRng::seed_from_u64(8);
        assert_eq!(rng.choose::<u8>(&[]), None);
        let items = [10, 20, 30];
        for _ in 0..50 {
            assert!(items.contains(rng.choose(&items).unwrap()));
        }
    }

    #[test]
    fn works_through_mut_references() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> usize {
            rng.gen_range(0..10)
        }
        let mut rng = StdRng::seed_from_u64(9);
        let _ = draw(&mut rng);
        let by_ref = &mut rng;
        let _ = draw(by_ref);
    }
}
