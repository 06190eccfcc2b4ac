//! The mixed Nash-equilibrium characterization of Theorem 3.4, as an exact
//! verifier.
//!
//! A mixed configuration `s` of `Π_k(G)` is a Nash equilibrium iff:
//!
//! 1. `E(D_s(tp))` is an edge cover of `G` and `D_s(VP)` is a vertex cover
//!    of the graph obtained by `E(D_s(tp))`;
//! 2. (a) the hit probability is constant on `D_s(VP)` and equals
//!    `min_v P_s(Hit(v))`; (b) the defender's probabilities sum to one;
//! 3. (a) the tuple mass is constant on `D_s(tp)` and equals
//!    `max_{t ∈ E^k} m_s(t)`; (b) the vertex-player mass totals `ν`.
//!
//! Condition 3(a) quantifies over the whole strategy space `E^k`;
//! computing `max_t m_s(t)` is maximum coverage, NP-hard in general
//! (DESIGN.md §5.3). [`VerificationMode`] selects between an exhaustive
//! enumeration (exact, small instances) and an analytic shortcut (exact
//! whenever mass is uniform on an independent support — the situation of
//! every k-matching NE).

use defender_graph::{edge_cover, independent_set, subgraph, vertex_cover};
use defender_num::Ratio;

use crate::best_response::defender_best_response_exact;
use crate::model::{MixedConfig, TupleGame};
use crate::payoff;
use crate::CoreError;

/// Default cap on `C(m, k)` for the exhaustive branch of `Auto` mode.
pub const DEFAULT_EXHAUSTIVE_LIMIT: usize = 200_000;

/// How to evaluate the `max_{t ∈ E^k} m_s(t)` side of condition 3(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerificationMode {
    /// Prefer the analytic shortcut; fall back to exhaustive enumeration
    /// capped at [`DEFAULT_EXHAUSTIVE_LIMIT`] tuples.
    Auto,
    /// Enumerate every tuple in `E^k` (exact; fails above the given cap).
    Exhaustive {
        /// Maximum number of tuples to enumerate.
        limit: usize,
    },
    /// Require the analytic preconditions (mass uniform on an independent
    /// support) and compute the maximum in closed form.
    Analytic,
}

/// Per-condition verdicts for one configuration (Theorem 3.4).
#[derive(Clone, Debug)]
pub struct MixedNeReport {
    /// Condition 1, first half: `E(D(tp))` covers every vertex.
    pub support_is_edge_cover: bool,
    /// Condition 1, second half: `D(VP)` covers the support subgraph.
    pub vp_covers_support_graph: bool,
    /// Condition 2(a), equality half: hit probability constant on `D(VP)`.
    pub hit_uniform_on_vp_support: bool,
    /// Condition 2(a), optimality half: that constant is the global
    /// minimum over `V`.
    pub hit_minimal_on_vp_support: bool,
    /// Condition 3(a), equality half: tuple mass constant on `D(tp)`.
    pub mass_uniform_on_tp_support: bool,
    /// Condition 3(a), optimality half: that constant is the maximum over
    /// all of `E^k`.
    pub mass_maximal_on_tp_support: bool,
    /// Condition 3(b): total mass on covered vertices equals `ν`
    /// (with condition 1 this is mass conservation, Claim 3.7).
    pub mass_conserved: bool,
    /// The common hit probability on the attackers' support, when uniform.
    pub support_hit: Option<Ratio>,
    /// The common tuple mass on the defender's support, when uniform.
    pub support_mass: Option<Ratio>,
    /// How 3(a)'s maximum was evaluated.
    pub mode_used: ModeUsed,
}

/// Which evaluation path decided condition 3(a).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ModeUsed {
    /// `C(m, k)` tuples were enumerated.
    Exhaustive,
    /// The closed form `max = c · min(k, |support(m)|)` applied.
    Analytic,
}

impl MixedNeReport {
    /// Whether every condition of Theorem 3.4 holds — i.e. the
    /// configuration is a mixed Nash equilibrium.
    #[must_use]
    pub fn is_equilibrium(&self) -> bool {
        self.support_is_edge_cover
            && self.vp_covers_support_graph
            && self.hit_uniform_on_vp_support
            && self.hit_minimal_on_vp_support
            && self.mass_uniform_on_tp_support
            && self.mass_maximal_on_tp_support
            && self.mass_conserved
    }

    /// The conditions that failed, as short labels (empty at equilibrium).
    #[must_use]
    pub fn failures(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if !self.support_is_edge_cover {
            out.push("1: E(D(tp)) is not an edge cover");
        }
        if !self.vp_covers_support_graph {
            out.push("1: D(VP) does not cover the support subgraph");
        }
        if !self.hit_uniform_on_vp_support {
            out.push("2a: hit probability varies over D(VP)");
        }
        if !self.hit_minimal_on_vp_support {
            out.push("2a: a vertex outside D(VP) has smaller hit probability");
        }
        if !self.mass_uniform_on_tp_support {
            out.push("3a: tuple mass varies over D(tp)");
        }
        if !self.mass_maximal_on_tp_support {
            out.push("3a: a tuple outside D(tp) has larger mass");
        }
        if !self.mass_conserved {
            out.push("3b: covered mass differs from ν");
        }
        out
    }
}

/// Verifies Theorem 3.4's conditions for `config` exactly.
///
/// # Errors
///
/// - [`CoreError::ConfigMismatch`] when `ν = 0` (the theorem presumes at
///   least one vertex player; with none, *every* configuration is an
///   equilibrium and the characterization does not apply);
/// - [`CoreError::TooLarge`] when 3(a) needs exhaustive enumeration beyond
///   the mode's cap and the analytic preconditions fail.
pub fn verify_mixed_ne(
    game: &TupleGame<'_>,
    config: &MixedConfig,
    mode: VerificationMode,
) -> Result<MixedNeReport, CoreError> {
    if game.attacker_count() == 0 {
        return Err(CoreError::ConfigMismatch {
            reason: "Theorem 3.4 presumes ν ≥ 1 vertex players".into(),
        });
    }
    let _span = defender_obs::span!("verify_mixed_ne");
    defender_obs::counter!("core.characterization.checks").incr();
    let graph = game.graph();
    let vp_support = config.vp_support_union();
    let support_edges = config.support_edges();

    // Condition 1.
    let support_is_edge_cover = edge_cover::is_edge_cover(graph, &support_edges);
    let vp_covers_support_graph = vertex_cover::covers_edges(graph, &vp_support, &support_edges);

    // Condition 2(a).
    let hit = payoff::hit_probabilities(game, config);
    #[expect(
        clippy::indexing_slicing,
        reason = "hit is sized by vertex_count; VertexId::index is in range"
    )]
    let support_hits: Vec<Ratio> = vp_support.iter().map(|v| hit[v.index()]).collect();
    let hit_uniform_on_vp_support = support_hits
        .windows(2)
        .all(|w| matches!(w, [a, b] if a == b));
    let support_hit = support_hits.first().copied();
    let global_min_hit = hit.iter().copied().min().unwrap_or(Ratio::ZERO);
    let hit_minimal_on_vp_support =
        hit_uniform_on_vp_support && support_hit.is_some_and(|h| h == global_min_hit);

    // Condition 3(a), equality half.
    let mass = payoff::vertex_mass(game, config);
    let support_masses: Vec<Ratio> = config
        .tp_support()
        .iter()
        .map(|t| payoff::tuple_mass_with(&mass, game, t))
        .collect();
    let mass_uniform_on_tp_support = support_masses
        .windows(2)
        .all(|w| matches!(w, [a, b] if a == b));
    let support_mass = support_masses.first().copied();

    // Condition 3(a), optimality half: max_{t ∈ E^k} m_s(t).
    let (max_mass, mode_used) = maximum_tuple_mass(game, &mass, mode)?;
    let mass_maximal_on_tp_support =
        mass_uniform_on_tp_support && support_mass.is_some_and(|m| m == max_mass);

    // Condition 3(b): Σ_{v ∈ V(D(tp))} m(v) = ν.
    let covered = graph.endpoint_set(&support_edges);
    #[expect(
        clippy::indexing_slicing,
        reason = "mass is sized by vertex_count; VertexId::index is in range"
    )]
    let covered_mass: Ratio = covered.iter().map(|v| mass[v.index()]).sum();
    let mass_conserved = covered_mass == Ratio::from(game.attacker_count());

    let report = MixedNeReport {
        support_is_edge_cover,
        vp_covers_support_graph,
        hit_uniform_on_vp_support,
        hit_minimal_on_vp_support,
        mass_uniform_on_tp_support,
        mass_maximal_on_tp_support,
        mass_conserved,
        support_hit,
        support_mass,
        mode_used,
    };
    defender_obs::counter!("core.characterization.conditions_failed")
        .add(report.failures().len() as u64);
    Ok(report)
}

/// Computes `max_{t ∈ E^k} m(t)` exactly, choosing a strategy per `mode`.
fn maximum_tuple_mass(
    game: &TupleGame<'_>,
    mass: &[Ratio],
    mode: VerificationMode,
) -> Result<(Ratio, ModeUsed), CoreError> {
    let result = match mode {
        VerificationMode::Analytic => Ok((analytic_max(game, mass)?, ModeUsed::Analytic)),
        VerificationMode::Exhaustive { limit } => {
            Ok((exhaustive_max(game, mass, limit)?, ModeUsed::Exhaustive))
        }
        VerificationMode::Auto => match analytic_max(game, mass) {
            Ok(max) => Ok((max, ModeUsed::Analytic)),
            Err(_) => Ok((
                exhaustive_max(game, mass, DEFAULT_EXHAUSTIVE_LIMIT)?,
                ModeUsed::Exhaustive,
            )),
        },
    };
    if let Ok((_, used)) = &result {
        match used {
            ModeUsed::Analytic => {
                defender_obs::counter!("core.characterization.analytic_evals").incr();
            }
            ModeUsed::Exhaustive => {
                defender_obs::counter!("core.characterization.exhaustive_evals").incr();
            }
        }
    }
    result
}

/// Closed forms for the two uniform-mass cases (DESIGN.md §5.3):
///
/// - **Independent support** (every k-matching NE): when the positive-mass
///   vertices form an independent set and all carry the same mass `c`,
///   every edge covers at most one of them, so `k` distinct edges cover at
///   most `min(k, |support|)` — achievable because each positive vertex
///   has a private incident edge (no two can share one, the set being
///   independent) and `m ≥ k` provides padding.
/// - **Full support** (every covering NE): when *all* vertices carry mass
///   `c`, the maximum is `c` times the most vertices `k` distinct edges
///   can cover: `2k` while `k ≤ μ(G)`, and `min(μ(G) + k, n)` beyond —
///   past a maximum matching, each extra edge adds at most one new vertex
///   (two new endpoints would extend the matching), and exactly one while
///   uncovered vertices remain (an uncovered vertex always has an edge to
///   a covered one at maximality).
fn analytic_max(game: &TupleGame<'_>, mass: &[Ratio]) -> Result<Ratio, CoreError> {
    let graph = game.graph();
    #[expect(
        clippy::indexing_slicing,
        reason = "mass is sized by vertex_count; VertexId::index is in range"
    )]
    let positive: Vec<defender_graph::VertexId> = graph
        .vertices()
        .filter(|v| mass[v.index()] > Ratio::ZERO)
        .collect();
    if positive.is_empty() {
        return Ok(Ratio::ZERO);
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "positive is nonempty: checked by the early return above"
    )]
    let c = mass[positive[0].index()];
    #[expect(
        clippy::indexing_slicing,
        reason = "mass is sized by vertex_count; VertexId::index is in range"
    )]
    let uniform = positive.iter().all(|v| mass[v.index()] == c);
    if !uniform {
        return Err(CoreError::ConfigMismatch {
            reason: "analytic mode needs uniform mass on the positive support".into(),
        });
    }
    if independent_set::is_independent_set(graph, &positive) {
        let coverable = game.k().min(positive.len());
        return Ok(c * Ratio::from(coverable));
    }
    if positive.len() == graph.vertex_count() {
        let mu = defender_matching::matching_number(graph);
        let k = game.k();
        let coverable = if k <= mu {
            2 * k
        } else {
            (mu + k).min(graph.vertex_count())
        };
        return Ok(c * Ratio::from(coverable));
    }
    Err(CoreError::ConfigMismatch {
        reason: "analytic mode needs an independent or full positive support".into(),
    })
}

/// Exhaustive maximum over all `C(m, k)` tuples: the covered mass of the
/// defender's exact best response.
fn exhaustive_max(game: &TupleGame<'_>, mass: &[Ratio], limit: usize) -> Result<Ratio, CoreError> {
    defender_best_response_exact(game, mass, limit).map(|(_, max)| max)
}

/// Checks condition 1 of Theorem 3.4 alone (used by Lemma 4.1 /
/// Definition 4.2, where a k-matching configuration must additionally be an
/// edge cover with a covering attacker support).
#[must_use]
pub fn condition_1_holds(game: &TupleGame<'_>, config: &MixedConfig) -> bool {
    let graph = game.graph();
    let support_edges = config.support_edges();
    let vp_support = config.vp_support_union();
    edge_cover::is_edge_cover(graph, &support_edges)
        && vertex_cover::covers_edges(graph, &vp_support, &support_edges)
}

/// The subgraph "obtained by `E(D_s(tp))`" — exposed for diagnostics.
#[must_use]
pub fn support_subgraph(game: &TupleGame<'_>, config: &MixedConfig) -> subgraph::Subgraph {
    subgraph::spanned_by_edges(game.graph(), &config.support_edges())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Tuple;
    use defender_game::MixedStrategy;
    use defender_graph::{generators, EdgeId, VertexId};

    /// The P4 matching NE: attackers uniform on {v0, v3}, defender uniform
    /// on {(0,1), (2,3)}.
    fn p4_equilibrium<'g>(graph: &'g defender_graph::Graph) -> (TupleGame<'g>, MixedConfig) {
        let game = TupleGame::new(graph, 1, 2).unwrap();
        let config = MixedConfig::symmetric(
            &game,
            MixedStrategy::uniform(vec![VertexId::new(0), VertexId::new(3)]),
            MixedStrategy::uniform(vec![
                Tuple::single(EdgeId::new(0)),
                Tuple::single(EdgeId::new(2)),
            ]),
        )
        .unwrap();
        (game, config)
    }

    #[test]
    fn accepts_the_p4_matching_ne_in_all_modes() {
        let g = generators::path(4);
        let (game, config) = p4_equilibrium(&g);
        for mode in [
            VerificationMode::Auto,
            VerificationMode::Analytic,
            VerificationMode::Exhaustive { limit: 1000 },
        ] {
            let report = verify_mixed_ne(&game, &config, mode).unwrap();
            assert!(
                report.is_equilibrium(),
                "mode {mode:?}: {:?}",
                report.failures()
            );
            assert_eq!(report.support_hit, Some(Ratio::new(1, 2)));
            assert_eq!(report.support_mass, Some(Ratio::ONE));
        }
    }

    #[test]
    fn analytic_and_exhaustive_agree_on_max() {
        let g = generators::path(4);
        let (game, config) = p4_equilibrium(&g);
        let a = verify_mixed_ne(&game, &config, VerificationMode::Analytic).unwrap();
        let e =
            verify_mixed_ne(&game, &config, VerificationMode::Exhaustive { limit: 100 }).unwrap();
        assert_eq!(a.mode_used, ModeUsed::Analytic);
        assert_eq!(e.mode_used, ModeUsed::Exhaustive);
        assert_eq!(a.is_equilibrium(), e.is_equilibrium());
    }

    #[test]
    fn rejects_non_covering_defender_support() {
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        // Defender only ever plays edge (0,1): v2, v3 uncovered.
        let config = MixedConfig::symmetric(
            &game,
            MixedStrategy::uniform(vec![VertexId::new(0), VertexId::new(3)]),
            MixedStrategy::pure(Tuple::single(EdgeId::new(0))),
        )
        .unwrap();
        let report = verify_mixed_ne(&game, &config, VerificationMode::Auto).unwrap();
        assert!(!report.support_is_edge_cover);
        assert!(!report.is_equilibrium());
    }

    #[test]
    fn rejects_biased_defender() {
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        let config = MixedConfig::symmetric(
            &game,
            MixedStrategy::uniform(vec![VertexId::new(0), VertexId::new(3)]),
            MixedStrategy::from_entries(vec![
                (Tuple::single(EdgeId::new(0)), Ratio::new(2, 3)),
                (Tuple::single(EdgeId::new(2)), Ratio::new(1, 3)),
            ])
            .unwrap(),
        )
        .unwrap();
        let report = verify_mixed_ne(&game, &config, VerificationMode::Auto).unwrap();
        assert!(!report.hit_uniform_on_vp_support);
        assert!(!report.is_equilibrium());
    }

    #[test]
    fn rejects_attacker_on_overcovered_vertex() {
        // Attackers sit on v1 (hit by both support edges of a C4 pairing).
        let g = generators::cycle(4);
        let game = TupleGame::new(&g, 1, 1).unwrap();
        // C4 edges sorted: (0,1),(0,3),(1,2),(2,3).
        let config = MixedConfig::symmetric(
            &game,
            MixedStrategy::pure(VertexId::new(1)),
            MixedStrategy::uniform(vec![
                Tuple::single(EdgeId::new(0)),
                Tuple::single(EdgeId::new(2)),
            ]),
        )
        .unwrap();
        let report = verify_mixed_ne(&game, &config, VerificationMode::Auto).unwrap();
        // v1 is hit with probability 1 while v3 is hit with probability 0.
        assert!(!report.hit_minimal_on_vp_support);
        assert!(!report.is_equilibrium());
    }

    #[test]
    fn rejects_defender_missing_heavy_tuple() {
        // Mass concentrated on v0 and v3 of P4, but the defender mixes on
        // middle edge (1,2) and edge (0,1): tuple (2,3) has equal mass to
        // (0,1) but (1,2) has less — non-uniform support mass.
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        let config = MixedConfig::symmetric(
            &game,
            MixedStrategy::uniform(vec![VertexId::new(0), VertexId::new(3)]),
            MixedStrategy::uniform(vec![
                Tuple::single(EdgeId::new(0)),
                Tuple::single(EdgeId::new(1)),
            ]),
        )
        .unwrap();
        let report = verify_mixed_ne(&game, &config, VerificationMode::Auto).unwrap();
        assert!(!report.is_equilibrium());
        assert!(!report.failures().is_empty());
    }

    #[test]
    fn zero_attackers_rejected() {
        let g = generators::path(2);
        let game = TupleGame::new(&g, 1, 0).unwrap();
        let config = MixedConfig::new(
            &game,
            vec![],
            MixedStrategy::pure(Tuple::single(EdgeId::new(0))),
        )
        .unwrap();
        assert!(verify_mixed_ne(&game, &config, VerificationMode::Auto).is_err());
    }

    #[test]
    fn analytic_mode_rejects_dependent_support() {
        // Attackers on two adjacent vertices: analytic precondition fails.
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        let config = MixedConfig::symmetric(
            &game,
            MixedStrategy::uniform(vec![VertexId::new(0), VertexId::new(1)]),
            MixedStrategy::uniform(vec![
                Tuple::single(EdgeId::new(0)),
                Tuple::single(EdgeId::new(2)),
            ]),
        )
        .unwrap();
        assert!(verify_mixed_ne(&game, &config, VerificationMode::Analytic).is_err());
        // Auto falls back to exhaustive and completes.
        let report = verify_mixed_ne(&game, &config, VerificationMode::Auto).unwrap();
        assert_eq!(report.mode_used, ModeUsed::Exhaustive);
    }

    #[test]
    fn condition_1_helper() {
        let g = generators::path(4);
        let (game, config) = p4_equilibrium(&g);
        assert!(condition_1_holds(&game, &config));
        let sub = support_subgraph(&game, &config);
        assert_eq!(sub.graph.edge_count(), 2);
    }
}
