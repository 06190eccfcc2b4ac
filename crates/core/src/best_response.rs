//! Best-response oracles for both kinds of player.
//!
//! The attacker side is easy: a best response is any vertex of minimum hit
//! probability. The defender side is *maximum coverage* — pick `k` edges
//! maximizing the covered attacker mass — which is NP-hard in general
//! (DESIGN.md §5.3), so two oracles are provided: an exhaustive exact one
//! (guarded) and the classical greedy `(1 − 1/e)`-approximation. These
//! power the fictitious-play dynamics ([`crate::dynamics`]) and give
//! experiments a refutation witness for non-equilibria.

use core::ops::Add;

use defender_graph::{EdgeId, VertexId};
use defender_num::Ratio;

use crate::model::{MixedConfig, TupleGame};
use crate::payoff;
use crate::tuple::{admit_enumeration, Tuple};
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
/// The scan walks the tuples in [`all_tuples`](crate::tuple::all_tuples)
/// order without building them, keeping per-vertex cover counts so that
/// each step adds only the masses of newly covered vertices. It adds
/// integer numerators over the masses' common denominator, or `Ratio`s
/// when that denominator or a numerator overflows `i128`. Ties go to the
/// first tuple in that order, the smallest in `Tuple`'s ordering, and
/// only the winner is built.
///
/// # Errors
///
/// Returns [`CoreError::TooLarge`] when `C(m, k)` exceeds `limit`.
pub fn defender_best_response_exact(
    game: &TupleGame<'_>,
    mass: &[Ratio],
    limit: usize,
) -> Result<(Tuple, Ratio), CoreError> {
    let graph = game.graph();
    admit_enumeration(graph.edge_count(), game.k(), limit)?;
    let ends: Vec<[usize; 2]> = graph
        .edges()
        .map(|e| graph.endpoints(e).both().map(VertexId::index))
        .collect();
    let heaviest = match common_numerators(mass) {
        Some(numerators) => first_heaviest(&ends, game.k(), &numerators, 0),
        None => first_heaviest(&ends, game.k(), mass, Ratio::ZERO),
    };
    #[expect(
        clippy::expect_used,
        reason = "k <= m guarantees at least one candidate tuple"
    )]
    let tuple = Tuple::new(heaviest.into_iter().map(EdgeId::new).collect())
        .expect("k ≤ m guarantees at least one tuple");
    let value = payoff::tuple_mass_with(mass, game, &tuple);
    Ok((tuple, value))
}

/// `mass` as integer numerators over its least common denominator, or
/// `None` when that denominator overflows `u64` or the sum of all the
/// numerators' magnitudes overflows `i128`. Each numerator fits, since
/// it is an `i64` times a `u64`; the sum bound covers every partial sum
/// of the scan.
fn common_numerators(mass: &[Ratio]) -> Option<Vec<i128>> {
    let mut den: u64 = 1;
    for r in mass {
        let d = r.denom().unsigned_abs();
        // Masses share a few denominators, so most already divide `den`.
        if den.checked_rem(d)? != 0 {
            let g = u64::try_from(defender_num::gcd(u128::from(den), u128::from(d))).ok()?;
            den = den.checked_mul(d.checked_div(g)?)?;
        }
    }
    let numerators = mass
        .iter()
        .map(|r| {
            let scale = den.checked_div(r.denom().unsigned_abs())?;
            i128::from(r.numer()).checked_mul(i128::from(scale))
        })
        .collect::<Option<Vec<i128>>>()?;
    numerators
        .iter()
        .try_fold(0i128, |sum, w| sum.checked_add(w.checked_abs()?))?;
    Some(numerators)
}

/// The edge indices of the first `k`-combination, in lexicographic order,
/// whose covered vertices weigh the most under `weight` (empty unless
/// `1 ≤ k ≤ ends.len()`).
fn first_heaviest<W>(ends: &[[usize; 2]], k: usize, weight: &[W], zero: W) -> Vec<usize>
where
    W: Copy + Ord + Add<Output = W>,
{
    if k == 0 || k > ends.len() {
        return Vec::new();
    }
    let mut walk = CoverWalk {
        ends,
        weight,
        covers: vec![0; weight.len()],
        chosen: Vec::with_capacity(k),
        best: None,
        heaviest: Vec::with_capacity(k),
    };
    walk.extend(0, k, zero);
    walk.heaviest
}

/// The depth-first walk behind [`first_heaviest`]: `chosen` holds the
/// edge indices picked so far, and `covers[v]` counts how many of them
/// cover vertex `v`.
struct CoverWalk<'a, W> {
    ends: &'a [[usize; 2]],
    weight: &'a [W],
    covers: Vec<u32>,
    chosen: Vec<usize>,
    /// The heaviest complete combination so far, and its weight.
    heaviest: Vec<usize>,
    best: Option<W>,
}

impl<W: Copy + Ord + Add<Output = W>> CoverWalk<'_, W> {
    /// Completes `chosen` with `left ≥ 1` more edges from index `first`
    /// on, in order; `covered` is the weight `chosen` already covers.
    #[expect(
        clippy::indexing_slicing,
        reason = "e < ends.len() by the range; endpoints are vertex ids, and \
                  covers and weight are sized by vertex_count"
    )]
    fn extend(&mut self, first: usize, left: usize, covered: W) {
        let last = self.ends.len() - left;
        if left == 1 {
            // The last edge completes a combination: weigh it in place.
            for e in first..=last {
                let mut sum = covered;
                for v in self.ends[e] {
                    if self.covers[v] == 0 {
                        sum = sum + self.weight[v];
                    }
                }
                if self.best.map_or(true, |best| sum > best) {
                    self.best = Some(sum);
                    self.heaviest.clone_from(&self.chosen);
                    self.heaviest.push(e);
                }
            }
            return;
        }
        for e in first..=last {
            let mut sum = covered;
            for v in self.ends[e] {
                if self.covers[v] == 0 {
                    sum = sum + self.weight[v];
                }
                self.covers[v] += 1;
            }
            self.chosen.push(e);
            self.extend(e + 1, left - 1, sum);
            self.chosen.pop();
            for v in self.ends[e] {
                self.covers[v] -= 1;
            }
        }
    }
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

    /// The enumerating scan the exact best response replaced: every
    /// tuple built by `all_tuples`, weighed by `tuple_mass_with`, and the
    /// smallest tuple among the heaviest.
    fn enumerating_oracle(
        game: &TupleGame<'_>,
        mass: &[Ratio],
        limit: usize,
    ) -> Result<(Tuple, Ratio), CoreError> {
        let tuples = crate::tuple::all_tuples(game.graph(), game.k(), limit)?;
        Ok(tuples
            .into_iter()
            .map(|t| {
                let value = payoff::tuple_mass_with(mass, game, &t);
                (t, value)
            })
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
            .unwrap())
    }

    /// The `core.exhaustive.*` ticks of `f`.
    fn exhaustive_ticks<T>(f: impl FnOnce() -> T) -> (T, Vec<(String, u64)>) {
        let (out, mut deltas) = defender_obs::captured(f);
        deltas.retain(|(name, _)| name.starts_with("core.exhaustive."));
        (out, deltas)
    }

    /// Runs the scan and the oracle on one mass vector and requires the
    /// same tuple, value, error and enumeration counters.
    fn assert_matches_oracle(game: &TupleGame<'_>, mass: &[Ratio], limit: usize, what: &str) {
        let scan = exhaustive_ticks(|| defender_best_response_exact(game, mass, limit));
        let oracle = exhaustive_ticks(|| enumerating_oracle(game, mass, limit));
        assert_eq!(scan, oracle, "{what}");
    }

    #[test]
    fn exact_scan_matches_the_enumerating_oracle() {
        let mut rng = StdRng::seed_from_u64(0xB0E5);
        for n in (5..=8).flat_map(|n| [n; 6]) {
            let g = generators::gnp_connected(n, 0.4, &mut rng);
            for k in 1..=3.min(g.edge_count()) {
                let game = TupleGame::new(&g, k, 2).unwrap();
                let eq = crate::solve::solve_exact(&game, 100_000).unwrap();
                let equilibrium = payoff::vertex_mass(&game, &eq.config);
                assert_matches_oracle(&game, &equilibrium, 100_000, "equilibrium masses");
                let random: Vec<Ratio> = g
                    .vertices()
                    .map(|_| {
                        let numer = i64::try_from(rng.gen_range(0..7)).unwrap();
                        let denom = i64::try_from(rng.gen_range(1..13)).unwrap();
                        Ratio::new(numer, denom)
                    })
                    .collect();
                assert_matches_oracle(&game, &random, 100_000, "random masses");
                // All-equal masses tie many tuples: the smallest must win.
                let equal = vec![Ratio::new(1, 3); g.vertex_count()];
                assert_matches_oracle(&game, &equal, 100_000, "equal masses");
            }
        }
    }

    #[test]
    fn a_limit_below_the_tuple_count_is_refused_like_the_oracle() {
        let g = generators::petersen();
        let game = TupleGame::new(&g, 2, 1).unwrap();
        let mass = vec![Ratio::new(1, 10); 10];
        // C(15, 2) = 105 tuples.
        for limit in [0, 104] {
            assert_matches_oracle(&game, &mass, limit, "refused");
            let err = defender_best_response_exact(&game, &mass, limit).unwrap_err();
            assert!(matches!(err, CoreError::TooLarge { .. }));
        }
        assert_matches_oracle(&game, &mass, 105, "admitted at the limit");
        let eq = crate::solve::solve_exact(&game, 100_000).unwrap();
        let (tuple, value, exact) = defender_best_response_auto(&game, &eq.config, 104);
        let greedy = defender_best_response_greedy(&game, &payoff::vertex_mass(&game, &eq.config));
        assert_eq!((tuple, value, exact), (greedy.0, greedy.1, false));
    }

    #[test]
    fn masses_past_an_i128_common_denominator_are_summed_as_ratios() {
        // Tuples here cover at most four vertices, so each tuple's mass
        // fits in a Ratio, but the masses' common denominator does not
        // fit in an i128.
        let primes: [i64; 12] = [
            32_749, 32_719, 32_717, 32_713, 32_707, 32_693, 32_687, 32_653, 32_647, 32_633, 32_621,
            32_611,
        ];
        let g = generators::cycle(12);
        let mass: Vec<Ratio> = primes.iter().map(|&p| Ratio::new(1, p)).collect();
        assert_eq!(common_numerators(&mass), None);
        for k in 1..=2 {
            let game = TupleGame::new(&g, k, 1).unwrap();
            assert_matches_oracle(&game, &mass, 100_000, "small coprime denominators");
        }
        let primes: [i64; 6] = [
            2_147_483_647,
            2_147_483_629,
            2_147_483_587,
            2_147_483_579,
            2_147_483_563,
            2_147_483_549,
        ];
        let g = generators::complete(6);
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let mass: Vec<Ratio> = primes.iter().map(|&p| Ratio::new(p - 1, p)).collect();
        assert_eq!(common_numerators(&mass), None);
        assert_matches_oracle(&game, &mass, 100_000, "large coprime denominators");
    }

    #[test]
    fn numerators_whose_magnitudes_sum_past_i128_are_summed_as_ratios() {
        // On P12 each edge covers at most one of the five i64::MAX masses
        // and never the 1/(2^62 + 1) one with them, so each tuple's mass
        // fits in a Ratio; scaled to the common denominator 2^62 + 1, the
        // five numerators sum past i128::MAX.
        let g = generators::path(12);
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let big = Ratio::from_integer(i64::MAX);
        let mut mass = [big, Ratio::ZERO].repeat(5);
        mass.extend([Ratio::new(1, (1 << 62) + 1), Ratio::ZERO]);
        assert_eq!(common_numerators(&mass), None);
        assert_matches_oracle(&game, &mass, 100_000, "numerators past i128");
        let (tuple, value) = defender_best_response_exact(&game, &mass, 100).unwrap();
        assert_eq!(tuple, Tuple::single(EdgeId::new(0)));
        assert_eq!(value, big);
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
