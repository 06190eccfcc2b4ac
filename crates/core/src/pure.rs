//! Pure Nash equilibria: Theorem 3.1 and Corollaries 3.2–3.3.
//!
//! `Π_k(G)` has a pure NE **iff** `G` has an edge cover of size `k`
//! (Theorem 3.1); existence is decidable in polynomial time via Gallai's
//! minimum edge cover (Corollary 3.2); and since every edge cover has at
//! least `⌈n/2⌉` edges, `n ≥ 2k + 1` rules pure NE out (Corollary 3.3).

use defender_graph::{EdgeSet, VertexId};
use defender_matching::edge_cover::{edge_cover_number, edge_cover_of_size};

use crate::model::{PureConfig, TupleGame};
use crate::tuple::Tuple;

/// Outcome of the pure-NE existence question for one instance.
#[derive(Clone, Debug)]
pub enum PureNeOutcome {
    /// An equilibrium exists; a witness is included.
    Exists {
        /// A pure NE: the defender plays an edge cover of size `k`, so
        /// every attacker is caught wherever it sits.
        equilibrium: PureConfig,
        /// The size-`k` edge cover the defender plays.
        cover: EdgeSet,
    },
    /// No pure NE: every edge cover needs more than `k` edges.
    None {
        /// The edge-cover number `ρ(G)` (`> k`).
        min_cover_size: usize,
    },
}

impl PureNeOutcome {
    /// Whether a pure NE exists.
    #[must_use]
    pub fn exists(&self) -> bool {
        matches!(self, PureNeOutcome::Exists { .. })
    }
}

/// Theorem 3.1 + Corollary 3.2: decides pure-NE existence for `Π_k(G)` in
/// polynomial time and constructs a witness when one exists.
///
/// The witness follows the theorem's proof: the defender's tuple is an
/// edge cover of size exactly `k` (a minimum cover padded with arbitrary
/// extra edges), so `V(s_tp) = V` and every attacker is caught regardless
/// of position; attackers are placed on vertex 0.
///
/// # Examples
///
/// ```
/// use defender_core::{model::TupleGame, pure::pure_ne_existence};
/// use defender_graph::generators;
///
/// let g = generators::cycle(6); // ρ(C6) = 3
/// let narrow = TupleGame::new(&g, 2, 4)?;
/// assert!(!pure_ne_existence(&narrow).exists());
/// let wide = TupleGame::new(&g, 3, 4)?;
/// assert!(pure_ne_existence(&wide).exists());
/// # Ok::<(), defender_core::CoreError>(())
/// ```
#[must_use]
pub fn pure_ne_existence(game: &TupleGame<'_>) -> PureNeOutcome {
    let graph = game.graph();
    match edge_cover_of_size(graph, game.k()) {
        Some(cover) => {
            #[expect(
                clippy::expect_used,
                reason = "edge_cover_of_size returns k distinct edges"
            )]
            let defender =
                Tuple::new(cover.clone()).expect("edge_cover_of_size returns k distinct edges");
            let equilibrium = PureConfig {
                attacker_choices: vec![VertexId::new(0); game.attacker_count()],
                defender,
            };
            PureNeOutcome::Exists { equilibrium, cover }
        }
        #[expect(
            clippy::expect_used,
            reason = "game-ready graphs are validated to have no isolated vertices"
        )]
        None => PureNeOutcome::None {
            min_cover_size: edge_cover_number(graph)
                .expect("game-ready graphs have no isolated vertices"),
        },
    }
}

/// Corollary 3.3: when `n ≥ 2k + 1`, no pure NE exists (any edge cover has
/// `≥ ⌈n/2⌉ > k` edges). A cheap sufficient test; [`pure_ne_existence`]
/// is the complete one.
#[must_use]
pub fn no_pure_ne_by_size(game: &TupleGame<'_>) -> bool {
    // The paper phrases this as n ≥ 2k + 1.
    game.graph().vertex_count() > 2 * game.k()
}

/// Exact pure-NE verification, following the case analysis in the proof of
/// Theorem 3.1:
///
/// - `ν = 0`: every configuration is trivially an equilibrium;
/// - the defender's tuple covers all of `V`: every attacker is caught and
///   the defender is at its maximum `ν` — equilibrium;
/// - otherwise: if any attacker sits on a covered vertex it can move to an
///   uncovered one; if all attackers sit uncovered the defender catches 0
///   and can deviate to any tuple containing an edge at an attacker — not
///   an equilibrium either way.
///
/// # Errors
///
/// Returns [`crate::CoreError::ConfigMismatch`] when the configuration
/// does not fit the game.
pub fn verify_pure_ne(game: &TupleGame<'_>, config: &PureConfig) -> Result<bool, crate::CoreError> {
    config.check_for(game)?;
    if game.attacker_count() == 0 {
        return Ok(true);
    }
    let covered = config.defender.vertices(game.graph());
    Ok(covered.len() == game.graph().vertex_count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::{edge_cover, generators, EdgeId};

    #[test]
    fn theorem_3_1_frontier_on_cycle() {
        let g = generators::cycle(6); // ρ = 3, m = 6
        for k in 1..=6 {
            let game = TupleGame::new(&g, k, 3).unwrap();
            let outcome = pure_ne_existence(&game);
            assert_eq!(outcome.exists(), k >= 3, "k = {k}");
        }
    }

    #[test]
    fn witness_is_a_cover_and_an_equilibrium() {
        let g = generators::petersen(); // ρ = 5
        let game = TupleGame::new(&g, 6, 4).unwrap();
        let PureNeOutcome::Exists { equilibrium, cover } = pure_ne_existence(&game) else {
            panic!("k = 6 ≥ ρ = 5 must admit a pure NE");
        };
        assert_eq!(cover.len(), 6);
        assert!(edge_cover::is_edge_cover(&g, &cover));
        assert!(verify_pure_ne(&game, &equilibrium).unwrap());
        assert_eq!(
            equilibrium.ip_tuple_player(&game),
            4,
            "all attackers caught"
        );
    }

    #[test]
    fn none_reports_min_cover() {
        let g = generators::star(5); // ρ = 5
        let game = TupleGame::new(&g, 2, 1).unwrap();
        let PureNeOutcome::None { min_cover_size } = pure_ne_existence(&game) else {
            panic!("star needs all 5 spokes");
        };
        assert_eq!(min_cover_size, 5);
    }

    #[test]
    fn corollary_3_3_is_sound() {
        // Whenever the size test fires, existence must indeed fail.
        for g in [
            generators::cycle(9),
            generators::path(8),
            generators::petersen(),
        ] {
            for k in 1..=3 {
                let game = TupleGame::new(&g, k, 2).unwrap();
                if no_pure_ne_by_size(&game) {
                    assert!(!pure_ne_existence(&game).exists(), "k = {k}, g = {g:?}");
                }
            }
        }
    }

    #[test]
    fn corollary_3_3_is_not_complete() {
        // Star K_{1,5}: n = 6 ≤ 2k + 1 fails for k = 3 (6 < 7), yet no
        // pure NE exists since ρ = 5 > 3. The cheap test must stay silent.
        let g = generators::star(5);
        let game = TupleGame::new(&g, 3, 1).unwrap();
        assert!(!no_pure_ne_by_size(&game));
        assert!(!pure_ne_existence(&game).exists());
    }

    #[test]
    fn verify_rejects_non_covering_tuple() {
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let config = PureConfig {
            attacker_choices: vec![VertexId::new(3)],
            defender: Tuple::single(EdgeId::new(0)),
        };
        assert!(!verify_pure_ne(&game, &config).unwrap());
    }

    #[test]
    fn verify_accepts_everything_with_zero_attackers() {
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 0).unwrap();
        let config = PureConfig {
            attacker_choices: vec![],
            defender: Tuple::single(EdgeId::new(0)),
        };
        assert!(verify_pure_ne(&game, &config).unwrap());
    }

    #[test]
    fn tiny_graph_below_frontier() {
        // P2 has ρ = 1, so even k = 1 admits a pure NE (n = 2 = 2k).
        let g = generators::path(2);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        assert!(pure_ne_existence(&game).exists());
        assert!(!no_pure_ne_by_size(&game));
    }
}
