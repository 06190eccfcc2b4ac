//! Brute-force cross-validation: the Tuple model as a generic
//! [`StrategicGame`], verified by `defender-game`'s exhaustive machinery.
//!
//! Everything here is exponential and guarded — its purpose is to check
//! the paper's polynomial-time structural results against first-principles
//! game theory on tiny instances (the tests of this module and the
//! integration suite do exactly that).

use defender_game::{nash, MixedStrategy, StrategicGame};
use defender_graph::VertexId;
use defender_num::Ratio;

use crate::model::{MixedConfig, TupleGame};
use crate::tuple::{all_tuples, Tuple};
use crate::CoreError;

/// A pure move of either kind of player.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Move {
    /// A vertex player's choice.
    Vertex(VertexId),
    /// The tuple player's choice.
    Tuple(Tuple),
}

/// Adapter exposing `Π_k(G)` through the generic [`StrategicGame`] trait.
///
/// Players `0..ν` are the vertex players; player `ν` is the tuple player.
/// The defender's strategy universe `E^k` is materialized eagerly, hence
/// the construction guard.
#[derive(Debug)]
pub struct GameAdapter<'a, 'g> {
    game: &'a TupleGame<'g>,
    tuples: Vec<Tuple>,
}

impl<'a, 'g> GameAdapter<'a, 'g> {
    /// Materializes the adapter.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::TooLarge`] when `C(m, k) > tuple_limit`.
    pub fn new(
        game: &'a TupleGame<'g>,
        tuple_limit: usize,
    ) -> Result<GameAdapter<'a, 'g>, CoreError> {
        let tuples = all_tuples(game.graph(), game.k(), tuple_limit)?;
        Ok(GameAdapter { game, tuples })
    }

    /// The defender's player index (`ν`).
    #[must_use]
    pub fn defender_index(&self) -> usize {
        self.game.attacker_count()
    }

    /// Lifts a [`MixedConfig`] into per-player [`Move`] distributions.
    #[must_use]
    pub fn lift(&self, config: &MixedConfig) -> Vec<MixedStrategy<Move>> {
        #[expect(
            clippy::expect_used,
            reason = "re-keying a valid distribution preserves validity"
        )]
        let mut profile: Vec<MixedStrategy<Move>> = config
            .attackers()
            .iter()
            .map(|s| {
                MixedStrategy::from_entries(s.iter().map(|(v, p)| (Move::Vertex(*v), p)).collect())
                    .expect("valid distribution lifts to a valid distribution")
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "re-keying a valid distribution preserves validity"
        )]
        profile.push(
            MixedStrategy::from_entries(
                config
                    .defender()
                    .iter()
                    .map(|(t, p)| (Move::Tuple(t.clone()), p))
                    .collect(),
            )
            .expect("valid distribution lifts to a valid distribution"),
        );
        profile
    }

    /// Exhaustive Nash verification of a mixed configuration — the ground
    /// truth the Theorem 3.4 verifier is cross-validated against.
    #[must_use]
    pub fn verify(&self, config: &MixedConfig) -> nash::NashReport<Move> {
        nash::verify(self, &self.lift(config))
    }

    /// All pure Nash equilibria, by exhaustive enumeration.
    #[must_use]
    pub fn pure_equilibria(&self) -> Vec<Vec<Move>> {
        nash::pure_equilibria(self)
    }

    /// The single-attacker game as an explicit bimatrix (defender = row
    /// player catching, attacker = column player escaping), together with
    /// the tuple universe indexing the rows.
    ///
    /// Enables `defender_game::enumerate_equilibria` to list *every*
    /// equilibrium of a tiny instance — the strongest cross-validation of
    /// the structural constructions available in this workspace.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConfigMismatch`] when `ν != 1`.
    pub fn bimatrix(&self) -> Result<(defender_game::TwoPlayerMatrixGame, Vec<Tuple>), CoreError> {
        if self.game.attacker_count() != 1 {
            return Err(CoreError::ConfigMismatch {
                reason: "bimatrix view is defined for ν = 1".into(),
            });
        }
        let graph = self.game.graph();
        let n = graph.vertex_count();
        // Rows are independent; build them on the worker pool and merge in
        // tuple order, so the matrix is identical for every pool width.
        let rows: Vec<(Vec<Ratio>, Vec<Ratio>)> = defender_par::par_map(&self.tuples, |t| {
            let mut drow = vec![Ratio::ZERO; n];
            let mut arow = vec![Ratio::ONE; n];
            #[expect(
                clippy::indexing_slicing,
                reason = "rows are sized by vertex_count; VertexId::index is in range"
            )]
            for v in t.vertices(graph) {
                drow[v.index()] = Ratio::ONE;
                arow[v.index()] = Ratio::ZERO;
            }
            (drow, arow)
        });
        let (defender_payoff, attacker_payoff): (Vec<_>, Vec<_>) = rows.into_iter().unzip();
        Ok((
            defender_game::TwoPlayerMatrixGame::new(defender_payoff, attacker_payoff),
            self.tuples.clone(),
        ))
    }
}

impl StrategicGame for GameAdapter<'_, '_> {
    type Strategy = Move;

    fn player_count(&self) -> usize {
        self.game.attacker_count() + 1
    }

    fn strategies(&self, player: usize) -> Vec<Move> {
        if player < self.game.attacker_count() {
            self.game.graph().vertices().map(Move::Vertex).collect()
        } else {
            self.tuples.iter().cloned().map(Move::Tuple).collect()
        }
    }

    fn payoff(&self, player: usize, profile: &[Move]) -> Ratio {
        #[expect(
            clippy::indexing_slicing,
            reason = "Game contract: profile has attacker_count + 1 slots"
        )]
        #[expect(
            clippy::panic,
            reason = "profile layout invariant: the last slot holds the defender tuple"
        )]
        let Move::Tuple(tuple) = &profile[self.game.attacker_count()] else {
            panic!("defender slot must hold a tuple");
        };
        let graph = self.game.graph();
        if player < self.game.attacker_count() {
            #[expect(
                clippy::indexing_slicing,
                reason = "player < attacker_count on this branch"
            )]
            #[expect(
                clippy::panic,
                reason = "profile layout invariant: attacker slots hold vertices"
            )]
            let Move::Vertex(v) = profile[player] else {
                panic!("attacker slot must hold a vertex");
            };
            if tuple.covers(graph, v) {
                Ratio::ZERO
            } else {
                Ratio::ONE
            }
        } else {
            #[expect(
                clippy::indexing_slicing,
                reason = "profile has attacker_count + 1 slots; prefix in range"
            )]
            let caught = profile[..self.game.attacker_count()]
                .iter()
                .filter(|m| {
                    #[expect(
                        clippy::panic,
                        reason = "profile layout invariant: attacker slots hold vertices"
                    )]
                    let Move::Vertex(v) = m
                    else {
                        panic!("attacker slot must hold a vertex");
                    };
                    tuple.covers(graph, *v)
                })
                .count();
            Ratio::from(caught)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::a_tuple_bipartite;
    use crate::characterization::{verify_mixed_ne, VerificationMode};
    use crate::pure::pure_ne_existence;
    use defender_graph::{generators, EdgeId};

    #[test]
    fn pure_ne_enumeration_matches_theorem_3_1() {
        // P4, k = 1, ν = 1: ρ(P4) = 2 > 1, so no pure NE whatsoever.
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let adapter = GameAdapter::new(&game, 10_000).unwrap();
        assert!(adapter.pure_equilibria().is_empty());
        assert!(!pure_ne_existence(&game).exists());

        // P4, k = 2: the cover {(0,1), (2,3)} exists; brute force agrees.
        let game2 = TupleGame::new(&g, 2, 1).unwrap();
        let adapter2 = GameAdapter::new(&game2, 10_000).unwrap();
        let pure = adapter2.pure_equilibria();
        assert!(!pure.is_empty());
        assert!(pure_ne_existence(&game2).exists());
        // In every brute-forced pure NE the defender plays the unique
        // 2-edge cover.
        let cover = Tuple::new(vec![EdgeId::new(0), EdgeId::new(2)]).unwrap();
        for profile in &pure {
            assert_eq!(profile[1], Move::Tuple(cover.clone()));
        }
    }

    #[test]
    fn structural_ne_survives_first_principles_verification() {
        let g = generators::complete_bipartite(2, 3);
        let game = TupleGame::new(&g, 2, 2).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        let adapter = GameAdapter::new(&game, 10_000).unwrap();
        let ground_truth = adapter.verify(ne.config());
        assert!(
            ground_truth.is_equilibrium(),
            "deviations: {:?}",
            ground_truth.deviations
        );
        // And the polynomial verifier concurs.
        let fast = verify_mixed_ne(&game, ne.config(), VerificationMode::Auto).unwrap();
        assert!(fast.is_equilibrium());
    }

    #[test]
    fn verifiers_agree_on_non_equilibria() {
        use defender_game::MixedStrategy as MS;
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let adapter = GameAdapter::new(&game, 10_000).unwrap();
        // Defender never covers v3; attacker plays v0 — attacker should
        // move, defender should move: not an equilibrium by both verifiers.
        let config = MixedConfig::symmetric(
            &game,
            MS::pure(defender_graph::VertexId::new(0)),
            MS::pure(Tuple::single(EdgeId::new(0))),
        )
        .unwrap();
        assert!(!adapter.verify(&config).is_equilibrium());
        let fast = verify_mixed_ne(&game, &config, VerificationMode::Auto).unwrap();
        assert!(!fast.is_equilibrium());
    }

    #[test]
    fn expected_payoffs_match_closed_forms() {
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        let adapter = GameAdapter::new(&game, 10_000).unwrap();
        let report = adapter.verify(ne.config());
        // Defender's expected payoff (last player) equals IP_tp.
        assert_eq!(
            report.expected_payoffs[adapter.defender_index()],
            crate::gain::defender_gain(&game, ne.config())
        );
    }

    #[test]
    fn bimatrix_is_identical_for_every_pool_width() {
        let g = generators::complete_bipartite(2, 3);
        let game = TupleGame::new(&g, 2, 1).unwrap();
        let adapter = GameAdapter::new(&game, 10_000).unwrap();
        defender_par::set_jobs(1);
        let (serial, tuples_serial) = adapter.bimatrix().unwrap();
        defender_par::set_jobs(4);
        let (parallel, tuples_parallel) = adapter.bimatrix().unwrap();
        defender_par::set_jobs(1);
        assert_eq!(tuples_serial, tuples_parallel);
        assert_eq!(serial.rows(), parallel.rows());
        assert_eq!(serial.cols(), parallel.cols());
        for i in 0..serial.rows() {
            for j in 0..serial.cols() {
                for player in 0..2 {
                    assert_eq!(
                        serial.payoff(player, &[i, j]),
                        parallel.payoff(player, &[i, j])
                    );
                }
            }
        }
    }

    #[test]
    fn guard_fires_on_large_spaces() {
        let g = generators::complete(8); // m = 28
        let game = TupleGame::new(&g, 7, 1).unwrap();
        assert!(matches!(
            GameAdapter::new(&game, 10_000),
            Err(CoreError::TooLarge { .. })
        ));
    }
}
