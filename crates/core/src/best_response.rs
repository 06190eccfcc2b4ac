//! Best-response oracles for both kinds of player.
//!
//! The attacker side is easy: a best response is any vertex of minimum hit
//! probability. The defender side is *maximum coverage* — pick `k` edges
//! maximizing the covered attacker mass — which is NP-hard in general
//! (DESIGN.md §5.3), so two oracles are provided: an exhaustive exact one
//! (guarded) and the classical greedy `(1 − 1/e)`-approximation. These
//! power the fictitious-play dynamics ([`crate::dynamics`]) and give
//! experiments a refutation witness for non-equilibria.

use defender_graph::{EdgeId, VertexId};
use defender_num::Ratio;

use crate::model::{MixedConfig, TupleGame};
use crate::payoff;
use crate::tuple::{all_tuples, Tuple};
use crate::CoreError;

/// The attacker's best response to a configuration: a vertex of minimum
/// hit probability, together with the escape probability it secures.
///
/// Ties break toward the smallest vertex id (deterministic).
#[must_use]
pub fn attacker_best_response(game: &TupleGame<'_>, config: &MixedConfig) -> (VertexId, Ratio) {
    let hit = payoff::hit_probabilities(game, config);
    #[expect(
        clippy::indexing_slicing,
        reason = "hit is sized by vertex_count; VertexId::index is in range"
    )]
    #[expect(clippy::expect_used, reason = "game graphs are validated non-empty")]
    let v = game
        .graph()
        .vertices()
        .min_by_key(|v| hit[v.index()])
        .expect("game graphs are non-empty");
    #[expect(
        clippy::indexing_slicing,
        reason = "hit is sized by vertex_count; VertexId::index is in range"
    )]
    (v, Ratio::ONE - hit[v.index()])
}

/// The defender's *exact* best response to an attacker mass vector:
/// the tuple maximizing covered mass, by exhaustive enumeration.
///
/// # Errors
///
/// Returns [`CoreError::TooLarge`] when `C(m, k)` exceeds `limit`.
pub fn defender_best_response_exact(
    game: &TupleGame<'_>,
    mass: &[Ratio],
    limit: usize,
) -> Result<(Tuple, Ratio), CoreError> {
    let tuples = all_tuples(game.graph(), game.k(), limit)?;
    #[expect(
        clippy::expect_used,
        reason = "k <= m guarantees at least one candidate tuple"
    )]
    let best = tuples
        .into_iter()
        .map(|t| {
            let value = payoff::tuple_mass_with(mass, game, &t);
            (t, value)
        })
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("k ≤ m guarantees at least one tuple");
    Ok(best)
}

/// The defender's *greedy* best response: repeatedly add the edge with the
/// largest marginal newly-covered mass. Standard maximum-coverage
/// greedy — at least `(1 − 1/e)` of the optimum, in `O(k·m)`.
#[must_use]
pub fn defender_best_response_greedy(game: &TupleGame<'_>, mass: &[Ratio]) -> (Tuple, Ratio) {
    let graph = game.graph();
    let mut covered = vec![false; graph.vertex_count()];
    let mut chosen: Vec<EdgeId> = Vec::with_capacity(game.k());
    let mut picked = vec![false; graph.edge_count()];
    let mut total = Ratio::ZERO;
    #[expect(
        clippy::indexing_slicing,
        reason = "picked is sized by edge_count; EdgeId::index is in range; \
                  covered is sized by vertex_count; VertexId::index is in range"
    )]
    for _ in 0..game.k() {
        let mut best: Option<(EdgeId, Ratio)> = None;
        #[expect(
            clippy::indexing_slicing,
            reason = "picked is sized by edge_count; EdgeId::index is in range; \
                      covered is sized by vertex_count; VertexId::index is in range; \
                      mass is sized by vertex_count; VertexId::index is in range"
        )]
        for e in graph.edges() {
            if picked[e.index()] {
                continue;
            }
            let ep = graph.endpoints(e);
            let mut marginal = Ratio::ZERO;
            if !covered[ep.u().index()] {
                marginal += mass[ep.u().index()];
            }
            if !covered[ep.v().index()] {
                marginal += mass[ep.v().index()];
            }
            if best.as_ref().map_or(true, |(_, b)| marginal > *b) {
                best = Some((e, marginal));
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "k <= m leaves an unpicked edge each greedy round"
        )]
        let (e, marginal) = best.expect("k ≤ m leaves an unpicked edge");
        picked[e.index()] = true;
        let ep = graph.endpoints(e);
        covered[ep.u().index()] = true;
        covered[ep.v().index()] = true;
        chosen.push(e);
        total += marginal;
    }
    #[expect(
        clippy::expect_used,
        reason = "greedy picks k distinct edges by construction"
    )]
    (
        Tuple::new(chosen).expect("greedy picks distinct edges"),
        total,
    )
}

/// Convenience: the defender's best response against a full configuration
/// (exact when feasible, greedy otherwise), returning which oracle ran.
#[must_use]
pub fn defender_best_response_auto(
    game: &TupleGame<'_>,
    config: &MixedConfig,
    limit: usize,
) -> (Tuple, Ratio, bool) {
    let mass = payoff::vertex_mass(game, config);
    match defender_best_response_exact(game, &mass, limit) {
        Ok((t, v)) => (t, v, true),
        Err(_) => {
            let (t, v) = defender_best_response_greedy(game, &mass);
            (t, v, false)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::a_tuple_bipartite;
    use defender_game::MixedStrategy;
    use defender_graph::generators;
    use defender_num::rng::{Rng, StdRng};

    #[test]
    fn attacker_picks_least_hit_vertex() {
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let config = MixedConfig::symmetric(
            &game,
            MixedStrategy::pure(VertexId::new(0)),
            MixedStrategy::pure(Tuple::single(EdgeId::new(0))),
        )
        .unwrap();
        let (v, escape) = attacker_best_response(&game, &config);
        assert_eq!(v, VertexId::new(2), "first vertex outside the covered edge");
        assert_eq!(escape, Ratio::ONE);
    }

    #[test]
    fn attacker_indifferent_at_equilibrium() {
        let g = generators::cycle(8);
        let game = TupleGame::new(&g, 2, 3).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        let (_, escape) = attacker_best_response(&game, ne.config());
        // Best response secures exactly the equilibrium escape probability.
        assert_eq!(escape, Ratio::ONE - ne.hit_probability());
    }

    #[test]
    fn defender_exact_matches_equilibrium_value() {
        let g = generators::cycle(8);
        let game = TupleGame::new(&g, 2, 3).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        let mass = payoff::vertex_mass(&game, ne.config());
        let (_, value) = defender_best_response_exact(&game, &mass, 100_000).unwrap();
        assert_eq!(
            value,
            ne.defender_gain(),
            "no tuple beats the equilibrium gain"
        );
    }

    #[test]
    fn greedy_within_bound_of_exact() {
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..25 {
            let g = generators::gnp_connected(9, 0.3, &mut rng);
            #[expect(
                clippy::integer_division_remainder_used,
                reason = "constant divisor: cycles the tested width through 1..=3"
            )]
            let k = 1 + trial % 3;
            if k > g.edge_count() {
                continue;
            }
            let game = TupleGame::new(&g, k, 3).unwrap();
            // Random attacker mass.
            let mass: Vec<Ratio> = g
                .vertices()
                .map(|_| Ratio::from(rng.gen_range(0..5)))
                .collect();
            let (_, exact) = defender_best_response_exact(&game, &mass, 100_000).unwrap();
            let (_, greedy) = defender_best_response_greedy(&game, &mass);
            assert!(greedy <= exact);
            // (1 - 1/e) ≈ 0.632; compare via rationals scaled by 1000.
            assert!(
                greedy * Ratio::from(1000) >= exact * Ratio::new(632, 1),
                "trial {trial}: greedy {greedy} vs exact {exact}"
            );
        }
    }

    #[test]
    fn greedy_is_exact_on_uniform_independent_mass() {
        // The k-matching situation: each edge covers at most one massive
        // vertex, so greedy's marginal gains are flat and optimal.
        let g = generators::complete_bipartite(3, 5);
        let game = TupleGame::new(&g, 2, 4).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        let mass = payoff::vertex_mass(&game, ne.config());
        let (_, greedy) = defender_best_response_greedy(&game, &mass);
        assert_eq!(greedy, ne.defender_gain());
    }

    #[test]
    fn auto_reports_oracle_used() {
        let g = generators::cycle(6);
        let game = TupleGame::new(&g, 2, 2).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        let (_, _, exact_used) = defender_best_response_auto(&game, ne.config(), 100_000);
        assert!(exact_used);
        let (_, _, exact_used) = defender_best_response_auto(&game, ne.config(), 1);
        assert!(!exact_used);
    }
}
