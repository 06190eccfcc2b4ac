//! Monte-Carlo attack simulator.
//!
//! The paper's motivating scenario — viruses attacking network hosts while
//! the security software scans `k` links — has no hardware to reproduce,
//! so we *simulate* it (DESIGN.md §6): repeatedly sample every player's
//! pure action from the mixed configuration, count arrests, and compare
//! empirical means against the exact expectations of equations (1)–(2).
//! Experiment E7 drives this module.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::float_arithmetic,
    reason = "The Monte-Carlo harness; the exact path never calls it."
)]

use defender_num::rng::{Rng, StdRng};

use defender_game::MixedStrategy;
use defender_num::Ratio;

use crate::model::{MixedConfig, TupleGame};

/// Parameters of a simulation run.
#[derive(Clone, Copy, Debug)]
pub struct SimulationConfig {
    /// Number of independent rounds to play.
    pub rounds: u64,
    /// RNG seed (runs are reproducible).
    pub seed: u64,
}

impl Default for SimulationConfig {
    fn default() -> SimulationConfig {
        SimulationConfig {
            rounds: 10_000,
            seed: 0xDEFE17DE5,
        }
    }
}

/// Aggregated results of a simulation run.
#[derive(Clone, Debug)]
pub struct SimulationOutcome {
    /// Rounds played.
    pub rounds: u64,
    /// Total arrests across all rounds.
    pub total_caught: u64,
    /// Empirical mean arrests per round (estimates `IP_tp`).
    pub mean_caught: f64,
    /// Per-attacker empirical escape frequency (estimates `IP_i`).
    pub escape_frequency: Vec<f64>,
}

impl SimulationOutcome {
    /// Absolute deviation of the empirical defender gain from an exact
    /// prediction.
    #[must_use]
    pub fn gain_error(&self, predicted: Ratio) -> f64 {
        (self.mean_caught - predicted.to_f64()).abs()
    }
}

/// A reusable sampler for one mixed configuration.
#[derive(Debug)]
pub struct Simulator<'a, 'g> {
    game: &'a TupleGame<'g>,
    config: &'a MixedConfig,
}

impl<'a, 'g> Simulator<'a, 'g> {
    /// Creates a simulator for `config` played on `game`.
    #[must_use]
    pub fn new(game: &'a TupleGame<'g>, config: &'a MixedConfig) -> Simulator<'a, 'g> {
        Simulator { game, config }
    }

    /// Plays `sim.rounds` independent rounds and aggregates arrests.
    #[must_use]
    pub fn run(&self, sim: &SimulationConfig) -> SimulationOutcome {
        let mut rng = StdRng::seed_from_u64(sim.seed);
        let graph = self.game.graph();
        let nu = self.game.attacker_count();
        let mut total_caught = 0u64;
        let mut escapes = vec![0u64; nu];
        for _ in 0..sim.rounds {
            let tuple = sample(self.config.defender(), &mut rng);
            let mut covered = vec![false; graph.vertex_count()];
            #[expect(
                clippy::indexing_slicing,
                reason = "covered is sized by vertex_count; VertexId::index is in range"
            )]
            for v in tuple.vertices(graph) {
                covered[v.index()] = true;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "covered is sized by vertex_count; VertexId::index is in range"
            )]
            for (strategy, escaped) in self.config.attackers().iter().zip(&mut escapes) {
                let v = sample(strategy, &mut rng);
                if covered[v.index()] {
                    total_caught += 1;
                } else {
                    *escaped += 1;
                }
            }
        }
        SimulationOutcome {
            rounds: sim.rounds,
            total_caught,
            mean_caught: total_caught as f64 / sim.rounds as f64,
            escape_frequency: escapes
                .into_iter()
                .map(|e| e as f64 / sim.rounds as f64)
                .collect(),
        }
    }
}

/// Samples one pure strategy by inverse transform: a uniform `f64` draw is
/// walked down the cumulative distribution. Probabilities are converted to
/// `f64` once per entry; the resulting per-sample bias is below 2⁻⁵²,
/// orders of magnitude under the 1/√rounds Monte-Carlo noise this module
/// exists to measure (exactness lives in `payoff`, not here).
fn sample<'s, S: Clone + Ord, R: Rng + ?Sized>(
    strategy: &'s MixedStrategy<S>,
    rng: &mut R,
) -> &'s S {
    // Draw u uniform in [0, 1) as a rational with 2^53 granularity.
    let u = rng.gen_f64();
    #[expect(
        clippy::expect_used,
        reason = "distributions sum to one, so the CDF scan always lands"
    )]
    pick_by_cdf(strategy.iter().map(|(s, p)| (s, p.to_f64())), u)
        .expect("mixed strategies have a positive-probability entry")
}

/// Walks `u` down the cumulative distribution of `(item, probability)`
/// pairs. When f64 accumulation lands short of 1.0 and `u` falls past the
/// final partial sum, falls back to the last *positive-probability* entry:
/// an explicit zero entry must never be selected, not even by the rounding
/// fallback (it would be an event of probability zero occurring).
fn pick_by_cdf<'s, S>(entries: impl Iterator<Item = (&'s S, f64)>, u: f64) -> Option<&'s S> {
    let mut acc = 0.0f64;
    let mut last_positive = None;
    for (s, p) in entries {
        acc += p;
        if p > 0.0 {
            last_positive = Some(s);
        }
        if u < acc {
            return s.into();
        }
    }
    last_positive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::a_tuple_bipartite;
    use crate::gain::defender_gain;
    use crate::model::TupleGame;
    use crate::tuple::Tuple;
    use defender_graph::{generators, EdgeId, VertexId};

    #[test]
    fn deterministic_configuration_has_zero_variance() {
        // Defender covers everything with a pure edge-cover tuple.
        let g = generators::path(4);
        let game = TupleGame::new(&g, 2, 3).unwrap();
        let config = MixedConfig::symmetric(
            &game,
            MixedStrategy::pure(VertexId::new(0)),
            MixedStrategy::pure(Tuple::new(vec![EdgeId::new(0), EdgeId::new(2)]).unwrap()),
        )
        .unwrap();
        let outcome = Simulator::new(&game, &config).run(&SimulationConfig {
            rounds: 500,
            seed: 1,
        });
        assert_eq!(outcome.total_caught, 3 * 500, "v0 is always covered");
        assert!(outcome.escape_frequency.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn empirical_gain_converges_to_exact() {
        let g = generators::complete_bipartite(3, 4);
        let game = TupleGame::new(&g, 2, 5).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        let exact = defender_gain(&game, ne.config());
        let outcome = Simulator::new(&game, ne.config()).run(&SimulationConfig {
            rounds: 60_000,
            seed: 42,
        });
        // Per-round catches are bounded by ν = 5; 60k rounds give a tight CI.
        assert!(
            outcome.gain_error(exact) < 0.05,
            "empirical {} vs exact {exact}",
            outcome.mean_caught
        );
    }

    #[test]
    fn escape_frequency_matches_equation_1() {
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        let config = MixedConfig::symmetric(
            &game,
            MixedStrategy::uniform(vec![VertexId::new(0), VertexId::new(3)]),
            MixedStrategy::uniform(vec![
                Tuple::single(EdgeId::new(0)),
                Tuple::single(EdgeId::new(2)),
            ]),
        )
        .unwrap();
        let outcome = Simulator::new(&game, &config).run(&SimulationConfig {
            rounds: 40_000,
            seed: 7,
        });
        // Equation (1): every attacker escapes with probability 1/2.
        for (i, f) in outcome.escape_frequency.iter().enumerate() {
            assert!((f - 0.5).abs() < 0.02, "attacker {i}: {f}");
        }
    }

    #[test]
    fn seeded_runs_reproduce() {
        let g = generators::complete_bipartite(2, 3);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        let sim = SimulationConfig {
            rounds: 1_000,
            seed: 9,
        };
        let a = Simulator::new(&game, ne.config()).run(&sim);
        let b = Simulator::new(&game, ne.config()).run(&sim);
        assert_eq!(a.total_caught, b.total_caught);
    }

    #[test]
    fn default_config_is_sane() {
        let d = SimulationConfig::default();
        assert!(d.rounds > 0);
    }

    /// Always returns the largest draw `gen_f64` can produce,
    /// `(2^53 - 1) / 2^53` — the draw most likely to fall off the end of a
    /// rounded-down f64 CDF.
    struct MaxRng;

    impl Rng for MaxRng {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    #[test]
    fn cdf_fallback_skips_trailing_explicit_zero() {
        // Ten 0.1 probabilities accumulate in f64 to exactly 1 - 2^-53,
        // which equals the maximal draw, so the walk falls through to the
        // fallback. The pre-fix fallback tracked *every* entry and so
        // returned the trailing zero-probability entry.
        let entries: Vec<(u32, f64)> = (0..10).map(|i| (i, 0.1)).chain([(99, 0.0)]).collect();
        let u = ((u64::MAX >> 11) as f64) * (1.0 / (1u64 << 53) as f64);
        let mut acc = 0.0;
        for &(_, p) in &entries {
            acc += p;
        }
        assert!(u >= acc, "the draw must fall past the accumulated CDF");
        let picked =
            pick_by_cdf(entries.iter().map(|(s, p)| (s, *p)), u).expect("positive entries exist");
        assert_ne!(*picked, 99, "zero-probability entries are unsampleable");
        assert_eq!(*picked, 9, "fallback is the last positive entry");
    }

    #[test]
    fn cdf_walk_never_selects_interior_zeros() {
        let entries = [(0u8, 0.5), (1, 0.0), (2, 0.5)];
        for u in [0.0, 0.25, 0.49999, 0.5, 0.75, 0.99999] {
            let picked = pick_by_cdf(entries.iter().map(|(s, p)| (s, *p)), u).unwrap();
            assert_ne!(*picked, 1, "u = {u}");
        }
        assert!(pick_by_cdf([(&7u8, 0.0)].into_iter(), 0.3).is_none());
    }

    #[test]
    fn sampler_fallback_returns_positive_entry_end_to_end() {
        // A strategy whose ten-entry f64 CDF lands short of 1.0: MaxRng
        // forces the fallback path through the public sampling loop.
        let support: Vec<VertexId> = (0..10).map(VertexId::new).collect();
        let strategy = MixedStrategy::uniform(support);
        let mut rng = MaxRng;
        let v = sample(&strategy, &mut rng);
        assert!(
            strategy.probability(v) > defender_num::Ratio::ZERO,
            "sampled {v:?} must be in the support"
        );
        assert_eq!(v.index(), 9, "fallback lands on the last positive entry");
    }
}
