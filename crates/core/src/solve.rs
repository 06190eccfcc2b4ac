//! Exact equilibrium computation on **arbitrary** graphs via linear
//! programming.
//!
//! The constructive theory covers bipartite graphs (Theorem 5.1) and
//! perfect-matching graphs (covering NE); odd cycles with a pendant
//! vertex, for instance, have neither. But the defender-vs-one-attacker
//! game is a finite zero-sum matrix game (`M[t][v] = 1` iff tuple `t`
//! covers vertex `v`), so its exact value and optimal strategies come out
//! of [`defender_lp`]. Because the tuple player's payoff is *linear in the
//! sum* of the attackers' distributions and the attackers do not interact,
//! the pair (optimal defender mixture, every attacker playing the optimal
//! attacker mixture) is a Nash equilibrium of `Π_k(G)` for **every** `ν`,
//! with defender gain `ν · value`.
//!
//! The matrix has `C(m, k)` columns, so this is for small instances —
//! exactly the regime the constructive algorithms do *not* cover.

use defender_game::MixedStrategy;
use defender_graph::VertexId;
use defender_lp::solve_zero_sum_hinted;
use defender_num::Ratio;

use crate::model::{MixedConfig, TupleGame};
use crate::tuple::{all_tuples, Tuple};
use crate::CoreError;

/// An exact equilibrium computed by linear programming.
#[derive(Clone, Debug)]
pub struct ExactEquilibrium {
    /// The single-attacker game value: the probability an optimally
    /// playing defender catches an optimally hiding attacker.
    pub value: Ratio,
    /// The symmetric Nash equilibrium of `Π_k(G)` built from the optimal
    /// strategies (every attacker plays the same optimal mixture).
    pub config: MixedConfig,
    /// Defender gain `ν · value`.
    pub defender_gain: Ratio,
}

/// Solves `Π_k(G)` exactly via the zero-sum LP.
///
/// # Errors
///
/// - [`CoreError::TooLarge`] when `C(m, k) > tuple_limit`;
/// - shape errors from the LP layer are converted to
///   [`CoreError::TooLarge`] (they cannot occur for valid games).
pub fn solve_exact(
    game: &TupleGame<'_>,
    tuple_limit: usize,
) -> Result<ExactEquilibrium, CoreError> {
    solve_exact_hinted(game, tuple_limit, None)
}

/// [`solve_exact`] with an optional warm-start hint.
///
/// The hint is a pair `(tuple_support, vertex_support)` of index sets —
/// typically the supports of a known equilibrium of an isomorphic
/// instance. Tuple indices refer to the enumeration order of
/// [`all_tuples`]; vertex indices are graph vertex indices. A good hint
/// lets the LP start from the optimal basis and finish without a single
/// simplex pivot; a bad or stale hint is rejected inside the LP layer
/// and the solve falls back to the cold path, so correctness never
/// depends on the hint.
///
/// # Errors
///
/// Same as [`solve_exact`].
pub fn solve_exact_hinted(
    game: &TupleGame<'_>,
    tuple_limit: usize,
    hint: Option<(&[usize], &[usize])>,
) -> Result<ExactEquilibrium, CoreError> {
    let graph = game.graph();
    let tuples = all_tuples(graph, game.k(), tuple_limit)?;
    // Rows: defender tuples (maximizer). Columns: attacker vertices.
    let matrix: Vec<Vec<Ratio>> = tuples
        .iter()
        .map(|t| {
            let mut row = vec![Ratio::ZERO; graph.vertex_count()];
            #[expect(
                clippy::indexing_slicing,
                reason = "row is sized by vertex_count; VertexId::index is in range"
            )]
            for v in t.vertices(graph) {
                row[v.index()] = Ratio::ONE;
            }
            row
        })
        .collect();
    let solution = solve_zero_sum_hinted(&matrix, hint).map_err(|e| CoreError::TooLarge {
        what: format!("zero-sum LP ({e})"),
        limit: tuple_limit,
    })?;

    let defender_entries: Vec<(Tuple, Ratio)> = tuples
        .into_iter()
        .zip(solution.row_strategy.iter().copied())
        .filter(|(_, p)| !p.is_zero())
        .collect();
    let attacker_entries: Vec<(VertexId, Ratio)> = graph
        .vertices()
        .zip(solution.col_strategy.iter().copied())
        .filter(|(_, p)| !p.is_zero())
        .collect();
    #[expect(
        clippy::expect_used,
        reason = "the LP returns a normalized distribution"
    )]
    let defender =
        MixedStrategy::from_entries(defender_entries).expect("LP strategies are distributions");
    #[expect(
        clippy::expect_used,
        reason = "the LP returns a normalized distribution"
    )]
    let attacker =
        MixedStrategy::from_entries(attacker_entries).expect("LP strategies are distributions");
    let config = MixedConfig::symmetric(game, attacker, defender)?;
    let defender_gain = solution.value * Ratio::from(game.attacker_count());
    Ok(ExactEquilibrium {
        value: solution.value,
        config,
        defender_gain,
    })
}

/// LP warm start for sparse `k = 1` games, in the shape
/// [`solve_exact_hinted`] takes: one equilibrium's supports, found by
/// early-exit support enumeration on the edge-vertex incidence bimatrix.
/// At `k = 1` the tuple enumeration order *is* the edge order, so the
/// bimatrix row support doubles as the LP's tuple support verbatim.
/// Dense (more than 6 edges) or `k > 1` games return `None` — the scan
/// would cost more than the pivots it saves — and solve cold.
#[must_use]
pub fn support_hint(game: &TupleGame<'_>) -> Option<(Vec<usize>, Vec<usize>)> {
    let graph = game.graph();
    if game.k() != 1 || graph.edge_count() == 0 || graph.edge_count() > 6 {
        return None;
    }
    let incidence: Vec<Vec<Ratio>> = graph
        .edges()
        .map(|e| {
            let ends = graph.endpoints(e);
            (0..graph.vertex_count())
                .map(|v| {
                    if ends.contains(VertexId::new(v)) {
                        Ratio::ONE
                    } else {
                        Ratio::ZERO
                    }
                })
                .collect()
        })
        .collect();
    let bimatrix = defender_game::TwoPlayerMatrixGame::zero_sum(incidence);
    defender_game::first_equilibrium_supports(&bimatrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::a_tuple_bipartite;
    use crate::covering_ne::covering_ne;
    use crate::exhaustive::GameAdapter;
    use crate::payoff;
    use defender_graph::{generators, GraphBuilder};

    const LIMIT: usize = 100_000;

    #[test]
    fn value_matches_k_matching_on_bipartite() {
        for (graph, k, is_size) in [
            (generators::path(4), 1usize, 2usize),
            (generators::cycle(6), 1, 3),
            (generators::cycle(6), 2, 3),
            (generators::star(5), 2, 5),
            (generators::complete_bipartite(2, 4), 3, 4),
        ] {
            let game = TupleGame::new(&graph, k, 1).unwrap();
            let exact = solve_exact(&game, LIMIT).unwrap();
            assert_eq!(
                exact.value,
                Ratio::from(k) / Ratio::from(is_size),
                "{graph:?}, k = {k}: constant-sum games have a unique value"
            );
            // And matches the constructive equilibrium's gain.
            let ne = a_tuple_bipartite(&game).unwrap();
            assert_eq!(exact.defender_gain, ne.defender_gain());
        }
    }

    #[test]
    fn value_matches_covering_on_perfect_matching_graphs() {
        for (graph, k) in [
            (generators::complete(4), 1usize),
            (generators::complete(4), 2),
            (generators::petersen(), 1),
        ] {
            let game = TupleGame::new(&graph, k, 1).unwrap();
            let exact = solve_exact(&game, LIMIT).unwrap();
            let cov = covering_ne(&game).unwrap();
            assert_eq!(
                exact.defender_gain,
                cov.defender_gain(),
                "{graph:?}, k = {k}"
            );
        }
    }

    #[test]
    fn solves_graphs_outside_every_constructive_family() {
        // C5: odd (no bipartition) but 2-regular; uniform/uniform is the
        // equilibrium with value 2k/5.
        let c5 = generators::cycle(5);
        for k in 1..=2usize {
            let game = TupleGame::new(&c5, k, 1).unwrap();
            let exact = solve_exact(&game, LIMIT).unwrap();
            assert_eq!(
                exact.value,
                Ratio::from(2 * k) / Ratio::from(5),
                "C5, k = {k}"
            );
        }

        // A "tadpole": triangle with a pendant path — no perfect matching
        // (n odd), not bipartite. Neither construction applies; the LP
        // still delivers, and first principles certify it.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2); // triangle
        b.add_edge(2, 3).add_edge(3, 4); // tail
        let tadpole = b.build();
        let game = TupleGame::new(&tadpole, 1, 1).unwrap();
        let exact = solve_exact(&game, LIMIT).unwrap();
        let adapter = GameAdapter::new(&game, LIMIT).unwrap();
        let truth = adapter.verify(&exact.config);
        assert!(truth.is_equilibrium(), "deviations: {:?}", truth.deviations);
        assert!(exact.value > Ratio::ZERO && exact.value < Ratio::ONE);
    }

    #[test]
    fn lp_equilibrium_is_ne_for_many_attackers() {
        // The ν-fold symmetric lift stays an equilibrium.
        let graph = generators::cycle(5);
        let game = TupleGame::new(&graph, 1, 3).unwrap();
        let exact = solve_exact(&game, LIMIT).unwrap();
        let adapter = GameAdapter::new(&game, LIMIT).unwrap();
        let truth = adapter.verify(&exact.config);
        assert!(truth.is_equilibrium(), "deviations: {:?}", truth.deviations);
        assert_eq!(
            payoff::expected_ip_tuple_player(&game, &exact.config),
            exact.defender_gain
        );
    }

    #[test]
    fn hinted_solve_reproduces_the_cold_solve_bit_for_bit() {
        for (graph, k) in [
            (generators::cycle(5), 1usize),
            (generators::petersen(), 1),
            (generators::complete(4), 2),
        ] {
            let game = TupleGame::new(&graph, k, 1).unwrap();
            let cold = solve_exact(&game, LIMIT).unwrap();
            // Read the supports off the cold solution: tuple indices in
            // all_tuples order, vertex indices directly.
            let tuples = all_tuples(&graph, k, LIMIT).unwrap();
            let tuple_support: Vec<usize> = tuples
                .iter()
                .enumerate()
                .filter(|(_, t)| !cold.config.defender().probability(t).is_zero())
                .map(|(i, _)| i)
                .collect();
            let vertex_support: Vec<usize> = graph
                .vertices()
                .filter(|v| !cold.config.attacker(0).probability(v).is_zero())
                .map(|v| v.index())
                .collect();
            let warm =
                solve_exact_hinted(&game, LIMIT, Some((&tuple_support, &vertex_support))).unwrap();
            assert_eq!(warm.value, cold.value, "{graph:?}, k = {k}");
            assert_eq!(warm.defender_gain, cold.defender_gain);
            assert_eq!(
                warm.config.attacker(0).iter().collect::<Vec<_>>(),
                cold.config.attacker(0).iter().collect::<Vec<_>>()
            );
            assert_eq!(
                warm.config.defender().iter().collect::<Vec<_>>(),
                cold.config.defender().iter().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn garbage_hints_never_change_the_answer() {
        let graph = generators::cycle(5);
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        let cold = solve_exact(&game, LIMIT).unwrap();
        for hint in [
            (vec![0usize, 99], vec![0usize]),     // out-of-range tuple
            (vec![0], vec![42]),                  // out-of-range vertex
            (vec![], vec![]),                     // empty supports
            ((0..5).collect(), (0..5).collect()), // everything supported
        ] {
            let warm = solve_exact_hinted(&game, LIMIT, Some((&hint.0, &hint.1))).unwrap();
            assert_eq!(warm.value, cold.value, "hint {hint:?}");
        }
    }

    #[test]
    fn guard_fires() {
        let graph = generators::complete(9); // m = 36
        let game = TupleGame::new(&graph, 9, 1).unwrap();
        assert!(matches!(
            solve_exact(&game, 1_000),
            Err(CoreError::TooLarge { .. })
        ));
    }

    #[test]
    fn wheel_value_is_nontrivial() {
        // W5 (hub + C5): not bipartite, n = 6 even; PM exists? Hub matches
        // a rim vertex, remaining C4-minus... rim is C5 minus one vertex =
        // P4, which has a PM. So covering applies; check agreement.
        let graph = generators::wheel(5);
        let game = TupleGame::new(&graph, 1, 1).unwrap();
        let exact = solve_exact(&game, LIMIT).unwrap();
        let cov = covering_ne(&game).unwrap();
        assert_eq!(exact.defender_gain, cov.defender_gain());
        assert_eq!(exact.value, Ratio::new(2, 6));
    }
}
