//! Sparse mixed strategies with exact rational probabilities.

use core::fmt;

use defender_num::Ratio;

/// Errors from [`MixedStrategy`] construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrategyError {
    /// The probabilities do not sum to one (carries the actual sum).
    BadTotal(Ratio),
    /// A negative probability was supplied.
    NegativeProbability(Ratio),
    /// The same pure strategy appeared twice.
    DuplicateStrategy,
    /// No pure strategies were supplied.
    Empty,
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::BadTotal(total) => {
                write!(f, "probabilities sum to {total}, expected 1")
            }
            StrategyError::NegativeProbability(p) => {
                write!(f, "negative probability {p}")
            }
            StrategyError::DuplicateStrategy => write!(f, "duplicate pure strategy"),
            StrategyError::Empty => write!(f, "a mixed strategy needs at least one pure strategy"),
        }
    }
}

impl std::error::Error for StrategyError {}

/// A probability distribution over a finite set of pure strategies.
///
/// Stored sparsely — only strategies with strictly positive probability
/// (the *support*, `D_s(x)` in the paper's notation) are kept, sorted by
/// strategy for deterministic iteration and `O(log |support|)` lookup.
/// Probabilities are exact rationals summing to exactly one.
///
/// # Examples
///
/// ```
/// use defender_game::MixedStrategy;
/// use defender_num::Ratio;
///
/// let uniform = MixedStrategy::uniform(vec!["a", "b", "c", "a"]); // dedups
/// assert_eq!(uniform.support().len(), 3);
/// assert_eq!(uniform.probability(&"b"), Ratio::new(1, 3));
/// assert_eq!(uniform.probability(&"z"), Ratio::ZERO);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct MixedStrategy<S> {
    entries: Vec<(S, Ratio)>,
}

impl<S: Clone + Ord> MixedStrategy<S> {
    /// The pure strategy `s` played with probability one.
    #[must_use]
    pub fn pure(s: S) -> MixedStrategy<S> {
        MixedStrategy {
            entries: vec![(s, Ratio::ONE)],
        }
    }

    /// The uniform distribution over the given strategies (deduplicated).
    ///
    /// # Panics
    ///
    /// Panics if `support` is empty after deduplication.
    #[must_use]
    pub fn uniform(mut support: Vec<S>) -> MixedStrategy<S> {
        support.sort();
        support.dedup();
        assert!(
            !support.is_empty(),
            "uniform distribution needs a non-empty support"
        );
        #[expect(clippy::expect_used, reason = "support sizes are far below i64::MAX")]
        let p = Ratio::new(
            1,
            i64::try_from(support.len()).expect("support fits in i64"),
        );
        MixedStrategy {
            entries: support.into_iter().map(|s| (s, p)).collect(),
        }
    }

    /// Builds from explicit (strategy, probability) pairs.
    ///
    /// Zero-probability entries are dropped; the rest must be distinct,
    /// non-negative and sum to exactly one.
    ///
    /// # Errors
    ///
    /// Returns the corresponding [`StrategyError`] on violation.
    pub fn from_entries(entries: Vec<(S, Ratio)>) -> Result<MixedStrategy<S>, StrategyError> {
        let mut kept: Vec<(S, Ratio)> = Vec::with_capacity(entries.len());
        let mut total = Ratio::ZERO;
        for (s, p) in entries {
            if p < Ratio::ZERO {
                return Err(StrategyError::NegativeProbability(p));
            }
            total += p;
            if !p.is_zero() {
                kept.push((s, p));
            }
        }
        if kept.is_empty() {
            return Err(StrategyError::Empty);
        }
        if total != Ratio::ONE {
            return Err(StrategyError::BadTotal(total));
        }
        kept.sort_by(|a, b| a.0.cmp(&b.0));
        if kept.windows(2).any(|w| matches!(w, [a, b] if a.0 == b.0)) {
            return Err(StrategyError::DuplicateStrategy);
        }
        Ok(MixedStrategy { entries: kept })
    }

    /// The support: pure strategies with positive probability, sorted.
    #[must_use]
    pub fn support(&self) -> Vec<&S> {
        self.entries.iter().map(|(s, _)| s).collect()
    }

    /// Number of strategies in the support.
    #[must_use]
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// The probability assigned to `s` (zero when outside the support).
    #[must_use]
    pub fn probability(&self, s: &S) -> Ratio {
        self.entries
            .binary_search_by(|(t, _)| t.cmp(s))
            .ok()
            .and_then(|i| self.entries.get(i))
            .map_or(Ratio::ZERO, |&(_, p)| p)
    }

    /// Whether the distribution is degenerate (a single pure strategy).
    #[must_use]
    pub fn is_pure(&self) -> bool {
        self.entries.len() == 1
    }

    /// Whether every support member has the same probability.
    #[must_use]
    pub fn is_uniform(&self) -> bool {
        self.entries
            .windows(2)
            .all(|w| matches!(w, [a, b] if a.1 == b.1))
    }

    /// Iterates over `(strategy, probability)` pairs of the support.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&S, Ratio)> + '_ {
        self.entries.iter().map(|(s, p)| (s, *p))
    }

    /// Expected value of `f` under this distribution.
    pub fn expect(&self, mut f: impl FnMut(&S) -> Ratio) -> Ratio {
        self.entries.iter().map(|(s, p)| f(s) * *p).sum()
    }
}

impl<S: fmt::Debug> fmt::Debug for MixedStrategy<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(s, p)| (s, p.to_string())))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_strategy() {
        let s = MixedStrategy::pure(7u32);
        assert!(s.is_pure());
        assert!(s.is_uniform());
        assert_eq!(s.probability(&7), Ratio::ONE);
        assert_eq!(s.probability(&8), Ratio::ZERO);
    }

    #[test]
    fn uniform_dedups_and_sums_to_one() {
        let s = MixedStrategy::uniform(vec![3, 1, 2, 1]);
        assert_eq!(s.support_size(), 3);
        let total: Ratio = s.iter().map(|(_, p)| p).sum();
        assert_eq!(total, Ratio::ONE);
        assert!(s.is_uniform());
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_rejects_empty() {
        let _: MixedStrategy<u8> = MixedStrategy::uniform(vec![]);
    }

    #[test]
    fn from_entries_validates() {
        let ok = MixedStrategy::from_entries(vec![
            (1u8, Ratio::new(1, 4)),
            (2, Ratio::new(3, 4)),
            (3, Ratio::ZERO), // dropped
        ])
        .unwrap();
        assert_eq!(ok.support_size(), 2);

        let bad_total = MixedStrategy::from_entries(vec![(1u8, Ratio::new(1, 2))]);
        assert_eq!(
            bad_total.unwrap_err(),
            StrategyError::BadTotal(Ratio::new(1, 2))
        );

        let negative =
            MixedStrategy::from_entries(vec![(1u8, Ratio::new(3, 2)), (2, Ratio::new(-1, 2))]);
        assert_eq!(
            negative.unwrap_err(),
            StrategyError::NegativeProbability(Ratio::new(-1, 2))
        );

        let duplicate =
            MixedStrategy::from_entries(vec![(1u8, Ratio::new(1, 2)), (1, Ratio::new(1, 2))]);
        assert_eq!(duplicate.unwrap_err(), StrategyError::DuplicateStrategy);

        let empty = MixedStrategy::<u8>::from_entries(vec![]);
        assert_eq!(empty.unwrap_err(), StrategyError::Empty);
    }

    #[test]
    fn expectation() {
        let s =
            MixedStrategy::from_entries(vec![(0usize, Ratio::new(1, 3)), (10, Ratio::new(2, 3))])
                .unwrap();
        let mean = s.expect(|&v| Ratio::from(v));
        assert_eq!(mean, Ratio::new(20, 3));
    }

    #[test]
    fn non_uniform_detected() {
        let s = MixedStrategy::from_entries(vec![(0u8, Ratio::new(1, 3)), (1, Ratio::new(2, 3))])
            .unwrap();
        assert!(!s.is_uniform());
        assert!(!s.is_pure());
    }

    #[test]
    fn debug_render() {
        let s = MixedStrategy::pure("x");
        assert!(format!("{s:?}").contains('x'));
    }
}
