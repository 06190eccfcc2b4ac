//! Theorem 5.1: bipartite graphs always admit k-matching Nash equilibria,
//! computable in `max{O(k·n), O(m√n)}` time.
//!
//! The recipe: take a *minimum vertex cover* `VC` via König's theorem
//! (Hopcroft–Karp underneath) and the complementary independent set
//! `IS = V \ VC`, then run [`crate::a_tuple`]. König's
//! construction guarantees every `VC` vertex is matched to a private `IS`
//! vertex, which is exactly the (corrected) expander condition.

use defender_graph::vertex_cover;
use defender_matching::koenig::koenig_auto;

use crate::algorithm::{a_tuple, ATupleReport};
use crate::k_matching::KMatchingNe;
use crate::model::TupleGame;
use crate::CoreError;

/// Theorem 5.1: a k-matching mixed NE for a bipartite instance.
///
/// # Errors
///
/// - [`CoreError::Graph`] with
///   [`defender_graph::GraphError::NotBipartite`] when the graph has an
///   odd cycle;
/// - [`CoreError::TupleWiderThanSupport`] when `k` exceeds the maximum
///   independent set size `n − τ(G)` (DESIGN.md §5.2).
///
/// # Examples
///
/// ```
/// use defender_core::{a_tuple_bipartite, model::TupleGame};
/// use defender_graph::generators;
/// use defender_num::Ratio;
///
/// let g = generators::complete_bipartite(3, 4);
/// let game = TupleGame::new(&g, 2, 6)?;
/// let ne = a_tuple_bipartite(&game)?;
/// assert_eq!(ne.defender_gain(), Ratio::new(2 * 6, 4)); // k·ν/|IS|
/// # Ok::<(), defender_core::CoreError>(())
/// ```
pub fn a_tuple_bipartite(game: &TupleGame<'_>) -> Result<KMatchingNe, CoreError> {
    Ok(a_tuple_bipartite_report(game)?.ne)
}

/// [`a_tuple_bipartite`] exposing the full [`ATupleReport`] (intermediate
/// matching NE, `E_num`, `δ`).
///
/// # Errors
///
/// Same as [`a_tuple_bipartite`].
pub fn a_tuple_bipartite_report(game: &TupleGame<'_>) -> Result<ATupleReport, CoreError> {
    let graph = game.graph();
    let koenig = koenig_auto(graph)?;
    let is = vertex_cover::complement(graph, &koenig.cover);
    a_tuple(game, &is, &koenig.cover)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterization::{verify_mixed_ne, VerificationMode};
    use defender_graph::generators;
    use defender_num::rng::StdRng;
    use defender_num::Ratio;

    #[test]
    fn complete_bipartite_families() {
        for (a, b) in [(2usize, 3usize), (3, 3), (1, 6), (4, 5)] {
            let g = generators::complete_bipartite(a, b);
            let nu = 4;
            let game = TupleGame::new(&g, 1, nu).unwrap();
            let ne = a_tuple_bipartite(&game).unwrap();
            // Minimum VC of K_{a,b} is the smaller side; IS the larger.
            let is_size = a.max(b);
            assert_eq!(ne.defender_gain(), Ratio::from(nu) / Ratio::from(is_size));
            let report = verify_mixed_ne(&game, ne.config(), VerificationMode::Auto).unwrap();
            assert!(
                report.is_equilibrium(),
                "K_{{{a},{b}}}: {:?}",
                report.failures()
            );
        }
    }

    #[test]
    fn random_bipartite_sweep() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..15 {
            let g = generators::random_bipartite(4, 6, 0.4, &mut rng);
            let game = TupleGame::new(&g, 2, 5).unwrap();
            match a_tuple_bipartite(&game) {
                Ok(ne) => {
                    let report =
                        verify_mixed_ne(&game, ne.config(), VerificationMode::Auto).unwrap();
                    assert!(
                        report.is_equilibrium(),
                        "trial {trial}: {:?}",
                        report.failures()
                    );
                }
                Err(CoreError::TupleWiderThanSupport { .. }) => {
                    // Legal outcome when the maximum independent set is
                    // smaller than k — cannot happen here with |IS| ≥ 6 − τ,
                    // but keep the arm for clarity.
                    panic!("trial {trial}: |IS| ≥ 4 should exceed k = 2");
                }
                Err(e) => panic!("trial {trial}: {e}"),
            }
        }
    }

    #[test]
    fn trees_always_work() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10 {
            let g = generators::random_tree(12, &mut rng);
            let game = TupleGame::new(&g, 2, 3).unwrap();
            let ne = a_tuple_bipartite(&game).unwrap();
            let report = verify_mixed_ne(&game, ne.config(), VerificationMode::Auto).unwrap();
            assert!(report.is_equilibrium(), "{:?}", report.failures());
        }
    }

    #[test]
    fn odd_cycle_rejected() {
        let g = generators::cycle(5);
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let err = a_tuple_bipartite(&game).unwrap_err();
        assert!(matches!(
            err,
            CoreError::Graph(defender_graph::GraphError::NotBipartite)
        ));
    }

    #[test]
    fn report_carries_intermediates() {
        let g = generators::complete_bipartite(2, 4);
        let game = TupleGame::new(&g, 2, 4).unwrap();
        let report = a_tuple_bipartite_report(&game).unwrap();
        assert_eq!(report.e_num, 4, "E_num = |IS|");
        assert_eq!(report.delta, 2, "δ = 4/gcd(4,2)");
        assert_eq!(report.gain_ratio(), Ratio::from(2));
    }

    #[test]
    fn k_beyond_is_size() {
        // K_{1,2} (a path P3): IS = 2 leaves, m = 2, so k = 2 > ... |IS| = 2,
        // k = 2 is fine; use K_{2,2} with k = 3 > |IS| = 2? m = 4 ≥ 3. C4 is
        // K_{2,2}.
        let g = generators::complete_bipartite(2, 2);
        let game = TupleGame::new(&g, 3, 2).unwrap();
        let err = a_tuple_bipartite(&game).unwrap_err();
        assert!(matches!(err, CoreError::TupleWiderThanSupport { .. }));
    }
}
