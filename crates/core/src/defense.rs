//! Defense ratio and the Price of Defense, generalized to the Tuple model.
//!
//! Follow-up work to the Edge model defines the *defense ratio* of a
//! configuration as `DR(s) = ν / IP_tp(s)` — how far the defender sits
//! from the ideal of catching everyone — and the *Price of Defense* as its
//! best achievable value over Nash equilibria. For the Tuple model we
//! prove (and test) the width-`k` generalization:
//!
//! **Theorem (lower bound).** In every mixed NE of `Π_k(G)`,
//! `IP_tp ≤ 2k·ν/n`, i.e. `DR ≥ n/(2k)`.
//!
//! *Proof.* Summing hit probabilities over vertices counts each support
//! tuple at most `2k` times (a tuple has at most `2k` distinct
//! endpoints), so `Σ_v P(Hit(v)) ≤ 2k` and `min_v P(Hit(v)) ≤ 2k/n`. By
//! condition 2(a) of Theorem 3.4 every attacker is caught with exactly
//! that minimum probability, hence `IP_tp = ν·min_v P(Hit(v)) ≤ 2k·ν/n`. ∎
//!
//! Covering equilibria attain the bound with equality (gain `2k·ν/n`), so
//! graphs with perfect matchings are *defense optimal*:
//! `PoD(Π_k(G)) = n/(2k)`. k-matching equilibria have `DR = |IS|/k ≥
//! n/(2k)`, with equality iff `|IS| = n/2`.

use defender_num::Ratio;

use crate::gain::defender_gain;
use crate::model::{MixedConfig, TupleGame};

/// The defense ratio `ν / IP_tp` of a configuration (lower is better for
/// the defender; `1` means everyone is caught).
///
/// Returns `None` when the defender's expected gain is zero (ratio
/// undefined/infinite).
#[must_use]
pub fn defense_ratio(game: &TupleGame<'_>, config: &MixedConfig) -> Option<Ratio> {
    let gain = defender_gain(game, config);
    if gain.is_zero() {
        return None;
    }
    // divisor nonzero: gain.is_zero() returned None above
    Some(Ratio::from(game.attacker_count()) / gain)
}

/// The universal lower bound `n/(2k)` on the defense ratio of any mixed
/// Nash equilibrium of `Π_k(G)` (see the module docs for the proof).
#[must_use]
pub fn defense_ratio_lower_bound(game: &TupleGame<'_>) -> Ratio {
    // divisor nonzero: k >= 1 for a constructed TupleGame
    Ratio::from(game.graph().vertex_count()) / Ratio::from(2 * game.k())
}

/// Whether an equilibrium is *defense optimal*: its defense ratio meets
/// the `n/(2k)` bound exactly.
#[must_use]
pub fn is_defense_optimal(game: &TupleGame<'_>, config: &MixedConfig) -> bool {
    defense_ratio(game, config) == Some(defense_ratio_lower_bound(game))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::a_tuple_bipartite;
    use crate::characterization::{verify_mixed_ne, VerificationMode};
    use crate::covering_ne::covering_ne;
    use crate::model::TupleGame;
    use crate::solve::solve_exact;
    use defender_graph::{generators, GraphBuilder};

    #[test]
    fn covering_equilibria_are_defense_optimal() {
        for (graph, k) in [
            (generators::cycle(8), 2usize),
            (generators::complete(6), 3),
            (generators::petersen(), 2),
            (generators::grid(4, 4), 4),
        ] {
            let game = TupleGame::new(&graph, k, 5).unwrap();
            let ne = covering_ne(&game).unwrap();
            assert!(is_defense_optimal(&game, ne.config()), "{graph:?}, k = {k}");
            assert_eq!(
                defense_ratio(&game, ne.config()),
                Some(defense_ratio_lower_bound(&game))
            );
        }
    }

    #[test]
    fn k_matching_ratio_is_is_over_k() {
        let graph = generators::star(6); // |IS| = 6, n = 7
        let game = TupleGame::new(&graph, 2, 4).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        assert_eq!(defense_ratio(&game, ne.config()), Some(Ratio::new(6, 2)));
        // |IS| = 6 > n/2 = 7/2 → strictly above the bound → not optimal.
        assert!(!is_defense_optimal(&game, ne.config()));
        assert!(defense_ratio(&game, ne.config()).unwrap() > defense_ratio_lower_bound(&game));
    }

    #[test]
    fn bound_holds_for_every_verified_equilibrium() {
        // Sweep all equilibrium families we can construct and the LP
        // solutions on odd instances: none beats n/(2k).
        let instances: Vec<(defender_graph::Graph, usize)> = vec![
            (generators::path(6), 2),
            (generators::cycle(5), 1),
            (generators::cycle(7), 2),
            (generators::star(4), 2),
            (generators::complete_bipartite(2, 3), 2),
        ];
        for (graph, k) in instances {
            let game = TupleGame::new(&graph, k, 1).unwrap();
            let exact = solve_exact(&game, 100_000).unwrap();
            let ratio = defense_ratio(&game, &exact.config).expect("positive value");
            assert!(
                ratio >= defense_ratio_lower_bound(&game),
                "{graph:?}, k = {k}: DR {ratio} below the bound"
            );
        }
    }

    #[test]
    fn bound_is_tight_only_with_perfect_matchings() {
        // A star has no perfect matching; its exact equilibrium stays
        // strictly above the bound.
        let graph = generators::star(4);
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        let exact = solve_exact(&game, 100_000).unwrap();
        let ratio = defense_ratio(&game, &exact.config).unwrap();
        assert!(ratio > defense_ratio_lower_bound(&game));
    }

    #[test]
    fn ratio_undefined_at_zero_gain() {
        use defender_game::MixedStrategy;
        use defender_graph::{EdgeId, VertexId};
        // Defender on edge (0,1), attacker hiding at v3: gain 0.
        let graph = generators::path(4);
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        let config = crate::model::MixedConfig::symmetric(
            &game,
            MixedStrategy::pure(VertexId::new(3)),
            MixedStrategy::pure(crate::tuple::Tuple::single(EdgeId::new(0))),
        )
        .unwrap();
        assert_eq!(defense_ratio(&game, &config), None);
    }

    #[test]
    fn theorem_statement_cross_checked_by_characterization() {
        // Any configuration passing the Theorem 3.4 verifier obeys the
        // bound (sanity for the proof in the module docs).
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(0, 3);
        let graph = b.build(); // C4
        let game = TupleGame::new(&graph, 1, 2).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        let report = verify_mixed_ne(&game, ne.config(), VerificationMode::Auto).unwrap();
        assert!(report.is_equilibrium());
        assert!(defense_ratio(&game, ne.config()).unwrap() >= defense_ratio_lower_bound(&game));
    }
}
