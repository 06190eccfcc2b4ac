//! Fictitious-play dynamics: do myopic players *learn* the equilibrium?
//!
//! With a single attacker (`ν = 1`) the Tuple model is a two-player
//! constant-sum game (`IP_tp + IP_1 = 1`), so Robinson's theorem applies:
//! if both players repeatedly best-respond to the opponent's *empirical*
//! mixture, the time-averaged payoff converges to the game's value — which
//! by constant-sumness is the defender gain of *any* equilibrium, e.g.
//! `k/|IS|` wherever a k-matching NE exists. Experiment E11 charts the
//! convergence; the exact defender oracle keeps Robinson's hypotheses
//! intact (the greedy oracle gives a faster, approximate variant).

#![expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "Empirical catch-rate reporting, not NE computation."
)]

use defender_num::Ratio;

use crate::best_response::{defender_best_response_exact, defender_best_response_greedy};
use crate::model::TupleGame;
use crate::tuple::Tuple;
use crate::CoreError;

/// Which defender oracle drives the dynamics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleMode {
    /// Exhaustive maximum coverage (Robinson's theorem applies).
    Exact {
        /// Cap on `C(m, k)` enumeration.
        limit: usize,
    },
    /// Greedy `(1 − 1/e)` coverage (no convergence guarantee; scalable).
    Greedy,
}

/// The trace of a fictitious-play run.
#[derive(Clone, Debug)]
pub struct PlayTrace {
    /// Rounds played.
    pub rounds: usize,
    /// Time-averaged defender payoff after each power-of-two checkpoint,
    /// as `(round, average)`.
    pub checkpoints: Vec<(usize, f64)>,
    /// Final time-averaged defender payoff.
    pub average_payoff: f64,
    /// How often each vertex was the attacker's best response.
    pub attacker_frequency: Vec<usize>,
}

/// Runs fictitious play on a single-attacker instance.
///
/// Round `t`: the attacker best-responds to the defender's empirical tuple
/// history (picking the historically least-covered vertex), the defender
/// best-responds to the attacker's empirical vertex history; both moves
/// then enter the histories. The reported payoff of a round is the *exact*
/// probability the defender's chosen tuple catches the attacker's chosen
/// vertex (0 or 1), averaged over rounds.
///
/// # Errors
///
/// - [`CoreError::ConfigMismatch`] when `game.attacker_count() != 1`
///   (Robinson's constant-sum argument needs exactly one attacker);
/// - [`CoreError::TooLarge`] in exact mode when the tuple space exceeds
///   the limit.
pub fn fictitious_play(
    game: &TupleGame<'_>,
    rounds: usize,
    mode: OracleMode,
) -> Result<PlayTrace, CoreError> {
    if game.attacker_count() != 1 {
        return Err(CoreError::ConfigMismatch {
            reason: "fictitious play is implemented for ν = 1 (constant-sum)".into(),
        });
    }
    let _span = defender_obs::span!("fictitious_play");
    let graph = game.graph();
    let n = graph.vertex_count();

    // Empirical histories.
    let mut vertex_counts = vec![0u64; n]; // attacker's past choices
    let mut coverage_counts = vec![0u64; n]; // how often each vertex was covered
    let mut caught_total = 0u64;
    let mut checkpoints = Vec::new();
    let mut next_checkpoint = 1usize;
    let mut attacker_frequency = vec![0usize; n];

    #[expect(
        clippy::indexing_slicing,
        reason = "count vectors are sized by vertex_count; index in range"
    )]
    for round in 1..=rounds {
        // Attacker: historically least-covered vertex (ties: lowest id).
        #[expect(
            clippy::indexing_slicing,
            reason = "coverage_counts is sized by vertex_count; index in range"
        )]
        #[expect(clippy::expect_used, reason = "game graphs are validated non-empty")]
        let attacker_vertex = graph
            .vertices()
            .min_by_key(|v| coverage_counts[v.index()])
            .expect("non-empty graph");
        // Defender: best response to the attacker's empirical mass.
        #[expect(
            clippy::expect_used,
            reason = "round counts are bounded far below i64::MAX"
        )]
        let mass: Vec<Ratio> = vertex_counts
            .iter()
            .map(|&c| Ratio::from(i64::try_from(c).expect("counts fit i64")))
            .collect();
        let tuple: Tuple = match mode {
            OracleMode::Exact { limit } => {
                if round == 1 {
                    // Empty history: any tuple; take the greedy one on the
                    // all-ones mass for a sensible opening move.
                    let ones = vec![Ratio::ONE; n];
                    defender_best_response_greedy(game, &ones).0
                } else {
                    defender_best_response_exact(game, &mass, limit)?.0
                }
            }
            OracleMode::Greedy => {
                let effective = if round == 1 {
                    vec![Ratio::ONE; n]
                } else {
                    mass
                };
                defender_best_response_greedy(game, &effective).0
            }
        };

        // Score and record the round.
        let caught = tuple.covers(graph, attacker_vertex);
        caught_total += u64::from(caught);
        vertex_counts[attacker_vertex.index()] += 1;
        attacker_frequency[attacker_vertex.index()] += 1;
        for v in tuple.vertices(graph) {
            coverage_counts[v.index()] += 1;
        }
        if round == next_checkpoint || round == rounds {
            checkpoints.push((round, caught_total as f64 / round as f64));
            next_checkpoint *= 2;
        }
    }

    defender_obs::counter!("core.dynamics.rounds").add(rounds as u64);
    defender_obs::counter!("core.dynamics.catches").add(caught_total);
    Ok(PlayTrace {
        rounds,
        average_payoff: caught_total as f64 / rounds as f64,
        checkpoints,
        attacker_frequency,
    })
}

/// The constant-sum value of a ν = 1 instance wherever a k-matching NE
/// exists: `k / |IS|` (every equilibrium of a constant-sum game has the
/// same payoff).
#[must_use]
pub fn known_value(k: usize, is_size: usize) -> f64 {
    k as f64 / is_size as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::a_tuple_bipartite;
    use defender_graph::generators;

    #[test]
    fn converges_to_known_value_on_c6() {
        let g = generators::cycle(6); // |IS| = 3
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let trace = fictitious_play(&game, 4_000, OracleMode::Exact { limit: 10_000 }).unwrap();
        let value = known_value(1, 3);
        assert!(
            (trace.average_payoff - value).abs() < 0.03,
            "average {} vs value {value}",
            trace.average_payoff
        );
    }

    #[test]
    fn converges_on_k2_star() {
        let g = generators::star(4); // |IS| = 4
        let game = TupleGame::new(&g, 2, 1).unwrap();
        let trace = fictitious_play(&game, 4_000, OracleMode::Exact { limit: 10_000 }).unwrap();
        let value = known_value(2, 4);
        assert!(
            (trace.average_payoff - value).abs() < 0.03,
            "average {} vs value {value}",
            trace.average_payoff
        );
    }

    #[test]
    fn greedy_mode_stays_in_value_ballpark() {
        let g = generators::complete_bipartite(2, 4); // |IS| = 4
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let trace = fictitious_play(&game, 4_000, OracleMode::Greedy).unwrap();
        let value = known_value(1, 4);
        assert!(
            (trace.average_payoff - value).abs() < 0.08,
            "average {} vs value {value}",
            trace.average_payoff
        );
    }

    #[test]
    fn attacker_history_concentrates_on_the_equilibrium_support() {
        let g = generators::star(4);
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        let trace = fictitious_play(&game, 2_000, OracleMode::Exact { limit: 10_000 }).unwrap();
        // The hub (outside the attacker support) should be chosen rarely.
        let is = &ne.supports().vp_support;
        let hub_picks = trace.attacker_frequency[0];
        let leaf_picks: usize = is.iter().map(|v| trace.attacker_frequency[v.index()]).sum();
        assert!(
            hub_picks * 10 < leaf_picks,
            "hub {hub_picks} vs leaves {leaf_picks}"
        );
    }

    #[test]
    fn multi_attacker_rejected() {
        let g = generators::path(3);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        assert!(fictitious_play(&game, 10, OracleMode::Greedy).is_err());
    }

    #[test]
    fn checkpoints_are_monotone_in_round() {
        let g = generators::cycle(8);
        let game = TupleGame::new(&g, 2, 1).unwrap();
        let trace = fictitious_play(&game, 500, OracleMode::Greedy).unwrap();
        assert!(trace.checkpoints.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(trace.checkpoints.last().unwrap().0, 500);
    }
}
