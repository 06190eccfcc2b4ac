//! Expected payoffs, best responses and exact Nash verification.
//!
//! These routines enumerate the cartesian product of supports, so they are
//! exponential in the player count — by design: they exist to
//! *cross-validate* the polynomial-time structural verifiers of
//! `defender-core` on tiny instances, with exact rational arithmetic and no
//! tolerance parameters.

use defender_num::{Ratio, RatioAccum};

use crate::{MixedStrategy, StrategicGame};

/// A profitable unilateral deviation found by [`verify`].
#[derive(Clone, Debug)]
pub struct Deviation<S> {
    /// The deviating player.
    pub player: usize,
    /// The pure strategy improving that player's expected payoff.
    pub strategy: S,
    /// Strictly positive improvement over the profile's expected payoff.
    pub gain: Ratio,
}

/// The outcome of Nash verification: per-player expected payoffs plus every
/// profitable pure deviation (empty iff the profile is an equilibrium).
#[derive(Clone, Debug)]
pub struct NashReport<S> {
    /// Expected payoff of each player under the verified profile.
    pub expected_payoffs: Vec<Ratio>,
    /// All profitable unilateral pure deviations.
    pub deviations: Vec<Deviation<S>>,
}

impl<S> NashReport<S> {
    /// Whether no player can gain by deviating (mixed Nash equilibrium).
    #[must_use]
    pub fn is_equilibrium(&self) -> bool {
        self.deviations.is_empty()
    }

    /// The largest single-player gain available (zero at equilibrium).
    #[must_use]
    pub fn max_regret(&self) -> Ratio {
        self.deviations
            .iter()
            .map(|d| d.gain)
            .max()
            .unwrap_or(Ratio::ZERO)
    }
}

/// Expected payoff of `player` when everyone mixes independently per
/// `profile`.
///
/// Runs over the cartesian product of supports — exponential in player
/// count, exact in arithmetic.
///
/// # Panics
///
/// Panics if `profile.len() != game.player_count()`.
#[must_use]
pub fn expected_payoff<G: StrategicGame>(
    game: &G,
    player: usize,
    profile: &[MixedStrategy<G::Strategy>],
) -> Ratio {
    assert_eq!(profile.len(), game.player_count(), "profile size mismatch");
    // Accumulate the product-distribution expectation without reducing per
    // term; one gcd at the end produces the identical canonical Ratio.
    let mut total = RatioAccum::new();
    let mut pure: Vec<G::Strategy> = Vec::with_capacity(profile.len());
    product_walk(game, player, profile, 0, Ratio::ONE, &mut pure, &mut total);
    total.finish()
}

fn product_walk<G: StrategicGame>(
    game: &G,
    player: usize,
    profile: &[MixedStrategy<G::Strategy>],
    depth: usize,
    weight: Ratio,
    pure: &mut Vec<G::Strategy>,
    total: &mut RatioAccum,
) {
    if depth == profile.len() {
        total.add_mul(weight, game.payoff(player, pure));
        return;
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "depth < profile.len(): recursion base checked above"
    )]
    for (s, p) in profile[depth].iter() {
        pure.push(s.clone());
        product_walk(game, player, profile, depth + 1, weight * p, pure, total);
        pure.pop();
    }
}

/// Expected payoff of `player` when it deviates to the pure strategy
/// `deviation` and everyone else keeps mixing per `profile`.
#[must_use]
#[expect(
    clippy::indexing_slicing,
    reason = "player < profile.len() by the Game contract"
)]
pub fn deviation_payoff<G: StrategicGame>(
    game: &G,
    player: usize,
    profile: &[MixedStrategy<G::Strategy>],
    deviation: &G::Strategy,
) -> Ratio {
    let mut patched = profile.to_vec();
    patched[player] = MixedStrategy::pure(deviation.clone());
    expected_payoff(game, player, &patched)
}

/// The best pure response of `player` against the others' mixing:
/// `(strategy, expected payoff)`.
///
/// # Panics
///
/// Panics if the player has no strategies.
#[must_use]
pub fn best_response<G: StrategicGame>(
    game: &G,
    player: usize,
    profile: &[MixedStrategy<G::Strategy>],
) -> (G::Strategy, Ratio) {
    #[expect(
        clippy::expect_used,
        reason = "strategy sets are non-empty by Game construction"
    )]
    game.strategies(player)
        .into_iter()
        .map(|s| {
            let value = deviation_payoff(game, player, profile, &s);
            (s, value)
        })
        .max_by(|a, b| a.1.cmp(&b.1))
        .expect("players have non-empty strategy sets")
}

/// Verifies whether `profile` is a mixed Nash equilibrium by checking every
/// pure deviation of every player (sufficient by linearity of expectation).
#[must_use]
pub fn verify<G: StrategicGame>(
    game: &G,
    profile: &[MixedStrategy<G::Strategy>],
) -> NashReport<G::Strategy> {
    let expected_payoffs: Vec<Ratio> = (0..game.player_count())
        .map(|p| expected_payoff(game, p, profile))
        .collect();
    let mut deviations = Vec::new();
    for (player, &expected) in expected_payoffs.iter().enumerate() {
        for s in game.strategies(player) {
            let value = deviation_payoff(game, player, profile, &s);
            if value > expected {
                deviations.push(Deviation {
                    player,
                    strategy: s,
                    gain: value - expected,
                });
            }
        }
    }
    NashReport {
        expected_payoffs,
        deviations,
    }
}

/// Two-player convenience wrapper around [`verify`].
#[must_use]
pub fn verify_two_player<G: StrategicGame>(
    game: &G,
    row: &MixedStrategy<G::Strategy>,
    col: &MixedStrategy<G::Strategy>,
) -> NashReport<G::Strategy> {
    verify(game, &[row.clone(), col.clone()])
}

/// Enumerates all *pure* Nash equilibria by exhaustive search over pure
/// profiles. Exponential; for tiny cross-validation games only.
#[must_use]
pub fn pure_equilibria<G: StrategicGame>(game: &G) -> Vec<Vec<G::Strategy>> {
    let universes: Vec<Vec<G::Strategy>> = (0..game.player_count())
        .map(|p| game.strategies(p))
        .collect();
    let mut out = Vec::new();
    let mut profile: Vec<G::Strategy> = Vec::with_capacity(universes.len());
    enumerate_profiles(game, &universes, 0, &mut profile, &mut out);
    out
}

fn enumerate_profiles<G: StrategicGame>(
    game: &G,
    universes: &[Vec<G::Strategy>],
    depth: usize,
    profile: &mut Vec<G::Strategy>,
    out: &mut Vec<Vec<G::Strategy>>,
) {
    let Some(universe) = universes.get(depth) else {
        // A complete profile: one strategy per player.
        let stable = universes.iter().enumerate().all(|(player, options)| {
            let current = game.payoff(player, profile);
            options.iter().all(|s| {
                let mut patched = profile.clone();
                if let Some(slot) = patched.get_mut(player) {
                    *slot = s.clone();
                }
                game.payoff(player, &patched) <= current
            })
        });
        if stable {
            out.push(profile.clone());
        }
        return;
    };
    for s in universe {
        profile.push(s.clone());
        enumerate_profiles(game, universes, depth + 1, profile, out);
        profile.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TwoPlayerMatrixGame;

    fn r(v: i64) -> Ratio {
        Ratio::from(v)
    }

    fn matching_pennies() -> TwoPlayerMatrixGame {
        TwoPlayerMatrixGame::zero_sum(vec![vec![r(1), r(-1)], vec![r(-1), r(1)]])
    }

    fn prisoners_dilemma() -> TwoPlayerMatrixGame {
        // Strategies: 0 = cooperate, 1 = defect.
        TwoPlayerMatrixGame::new(
            vec![vec![r(3), r(0)], vec![r(5), r(1)]],
            vec![vec![r(3), r(5)], vec![r(0), r(1)]],
        )
    }

    #[test]
    fn matching_pennies_uniform_is_ne() {
        let g = matching_pennies();
        let uniform = MixedStrategy::uniform(vec![0usize, 1]);
        let report = verify_two_player(&g, &uniform, &uniform);
        assert!(report.is_equilibrium());
        assert_eq!(report.expected_payoffs, vec![Ratio::ZERO, Ratio::ZERO]);
        assert_eq!(report.max_regret(), Ratio::ZERO);
    }

    #[test]
    fn matching_pennies_pure_is_not_ne() {
        let g = matching_pennies();
        let heads = MixedStrategy::pure(0usize);
        let report = verify_two_player(&g, &heads, &heads);
        assert!(!report.is_equilibrium());
        // The column player wants to switch to tails and gain 2.
        assert!(report
            .deviations
            .iter()
            .any(|d| d.player == 1 && d.strategy == 1 && d.gain == r(2)));
    }

    #[test]
    fn matching_pennies_has_no_pure_ne() {
        assert!(pure_equilibria(&matching_pennies()).is_empty());
    }

    #[test]
    fn prisoners_dilemma_defect_defect() {
        let g = prisoners_dilemma();
        assert_eq!(pure_equilibria(&g), vec![vec![1, 1]]);
        let defect = MixedStrategy::pure(1usize);
        assert!(verify_two_player(&g, &defect, &defect).is_equilibrium());
    }

    #[test]
    fn biased_mixing_detected_as_non_ne() {
        let g = matching_pennies();
        let biased =
            MixedStrategy::from_entries(vec![(0usize, Ratio::new(2, 3)), (1, Ratio::new(1, 3))])
                .unwrap();
        let uniform = MixedStrategy::uniform(vec![0usize, 1]);
        // Row biased, column uniform: row is indifferent, column can exploit.
        let report = verify_two_player(&g, &biased, &uniform);
        assert!(!report.is_equilibrium());
        assert_eq!(report.max_regret(), Ratio::new(1, 3));
    }

    #[test]
    fn best_response_values() {
        let g = prisoners_dilemma();
        let coop = MixedStrategy::pure(0usize);
        let (s, v) = best_response(&g, 0, &[coop.clone(), coop.clone()]);
        assert_eq!((s, v), (1, r(5)));
    }

    #[test]
    fn expected_payoff_mixes_exactly() {
        let g = matching_pennies();
        let p =
            MixedStrategy::from_entries(vec![(0usize, Ratio::new(1, 4)), (1, Ratio::new(3, 4))])
                .unwrap();
        let q = MixedStrategy::uniform(vec![0usize, 1]);
        // Row payoff: sum p_i q_j a_ij = 0 for uniform column.
        assert_eq!(expected_payoff(&g, 0, &[p, q]), Ratio::ZERO);
    }

    #[test]
    fn coordination_game_has_two_pure_ne() {
        let g = TwoPlayerMatrixGame::new(
            vec![vec![r(2), r(0)], vec![r(0), r(1)]],
            vec![vec![r(2), r(0)], vec![r(0), r(1)]],
        );
        let ne = pure_equilibria(&g);
        assert_eq!(ne, vec![vec![0, 0], vec![1, 1]]);
    }
}
