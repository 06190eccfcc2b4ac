//! Matching Nash equilibria of the Edge model (`Π_1(G)`): Definition 2.2,
//! Lemma 2.1, Theorem 2.2 and the construction algorithm `A` of \[7\].
//!
//! A *matching configuration* has (1) an independent attacker support and
//! (2) each support vertex incident to exactly one support edge. Lemma 2.1
//! upgrades such a configuration to a Nash equilibrium (uniform play) when
//! the defender's support is an edge cover and the attacker support covers
//! it. Theorem 2.2 characterizes existence by a partition `V = IS ∪ VC`
//! with `IS` independent and `VC` matchable into `IS` (the corrected
//! expander condition — DESIGN.md §5.1).

use defender_game::MixedStrategy;
use defender_graph::{
    edge_cover, independent_set, vertex_cover, EdgeId, EdgeSet, Graph, VertexId, VertexSet,
};
use defender_matching::hall::{matching_into_complement, HallOutcome};
use defender_num::Ratio;

use crate::model::{EdgeGame, MixedConfig};
use crate::payoff;
use crate::tuple::Tuple;
use crate::CoreError;

/// The support shape of a matching configuration (Definition 2.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MatchingConfig {
    /// `D(vp)` — the common support of every vertex player.
    pub vp_support: VertexSet,
    /// `D(tp)` — the edge player's support.
    pub tp_support: EdgeSet,
}

impl MatchingConfig {
    /// Checks Definition 2.2 against a graph: (1) `vp_support` is
    /// independent, (2) each support vertex is incident to exactly one
    /// support edge.
    #[must_use]
    pub fn is_matching_configuration(&self, graph: &Graph) -> bool {
        if !independent_set::is_independent_set(graph, &self.vp_support) {
            return false;
        }
        let mult = edge_cover::cover_multiplicity(graph, &self.tp_support);
        self.vp_support
            .iter()
            .all(|v| mult.get(v.index()) == Some(&1))
    }

    /// Checks the additional conditions of Lemma 2.1: `tp_support` is an
    /// edge cover of `G` and `vp_support` covers the subgraph it spans.
    #[must_use]
    pub fn satisfies_lemma_2_1(&self, graph: &Graph) -> bool {
        edge_cover::is_edge_cover(graph, &self.tp_support)
            && vertex_cover::covers_edges(graph, &self.vp_support, &self.tp_support)
    }
}

/// A matching Nash equilibrium of `Π_1(G)`: uniform distributions on a
/// matching configuration satisfying Lemma 2.1.
#[derive(Clone, Debug)]
pub struct MatchingNe {
    config: MixedConfig,
    supports: MatchingConfig,
    defender_gain: Ratio,
}

impl MatchingNe {
    /// The mixed configuration (uniform on both supports).
    #[must_use]
    pub fn config(&self) -> &MixedConfig {
        &self.config
    }

    /// The underlying supports.
    #[must_use]
    pub fn supports(&self) -> &MatchingConfig {
        &self.supports
    }

    /// `IP_tp` — the defender's expected gain, `ν / |D(vp)|`
    /// (Corollary 4.10's `k = 1` base case).
    #[must_use]
    pub fn defender_gain(&self) -> Ratio {
        self.defender_gain
    }
}

/// Lemma 2.1: turns a matching configuration that satisfies the covering
/// conditions into a Nash equilibrium by applying uniform distributions.
///
/// # Errors
///
/// - [`CoreError::NotEdgeModel`] when `game.k() != 1`;
/// - [`CoreError::NotKMatching`] when Definition 2.2 or the covering
///   conditions fail.
pub fn matching_ne_from_config(
    game: &EdgeGame<'_>,
    supports: MatchingConfig,
) -> Result<MatchingNe, CoreError> {
    if !game.is_edge_model() {
        return Err(CoreError::NotEdgeModel { k: game.k() });
    }
    let graph = game.graph();
    if !supports.is_matching_configuration(graph) {
        return Err(CoreError::NotKMatching {
            reason: "Definition 2.2 fails (support not independent or a support \
                     vertex lies on several support edges)"
                .into(),
        });
    }
    if !supports.satisfies_lemma_2_1(graph) {
        return Err(CoreError::NotKMatching {
            reason: "Lemma 2.1 covering conditions fail".into(),
        });
    }
    let vp = MixedStrategy::uniform(supports.vp_support.clone());
    let tp = MixedStrategy::uniform(
        supports
            .tp_support
            .iter()
            .map(|&e| Tuple::single(e))
            .collect(),
    );
    let config = MixedConfig::symmetric(game, vp, tp)?;
    let defender_gain = payoff::expected_ip_tuple_player(game, &config);
    Ok(MatchingNe {
        config,
        supports,
        defender_gain,
    })
}

/// Theorem 2.2 (corrected): whether the partition `(IS, V \ IS)` admits a
/// matching NE — `IS` independent and `VC` matchable into `IS`.
#[must_use]
pub fn partition_admits_matching_ne(graph: &Graph, is: &[VertexId]) -> bool {
    let mut scratch = Vec::new();
    partition_admits_with_scratch(graph, is, &mut scratch)
}

/// [`partition_admits_matching_ne`] with a caller-owned scratch buffer for
/// the independence test, so sweeps over many candidate sets (like
/// [`find_partition_small`]) stay allocation-free word arithmetic.
fn partition_admits_with_scratch(graph: &Graph, is: &[VertexId], scratch: &mut Vec<u64>) -> bool {
    if !independent_set::is_independent_set_with_scratch(graph, is, scratch) {
        return false;
    }
    let vc = vertex_cover::complement(graph, is);
    matching_into_complement(graph, &vc).is_saturated()
}

/// The construction algorithm `A(Π_1(G), IS, VC)` of \[7\]:
///
/// 1. match `VC` into `IS` (Hopcroft–Karp; exists by the partition
///    condition) — these matching edges enter the defender's support;
/// 2. each `IS` vertex left unmatched picks one arbitrary incident edge
///    (its other endpoint is necessarily in `VC`, `IS` being independent);
/// 3. both players play uniformly: attackers on `IS`, defender on the
///    collected edges.
///
/// Runs in `O(m√n)` (dominated by step 1).
///
/// # Errors
///
/// - [`CoreError::NotEdgeModel`] when `game.k() != 1`;
/// - [`CoreError::InvalidPartition`] when `IS` is not independent, the
///   sets do not partition `V`, or the Hall condition fails (the error
///   carries a violator witness).
pub fn algorithm_a(
    game: &EdgeGame<'_>,
    is: &[VertexId],
    vc: &[VertexId],
) -> Result<MatchingNe, CoreError> {
    if !game.is_edge_model() {
        return Err(CoreError::NotEdgeModel { k: game.k() });
    }
    let graph = game.graph();
    check_partition(graph, is, vc)?;

    let matching = match matching_into_complement(graph, vc) {
        HallOutcome::Saturated(m) => m,
        HallOutcome::Deficient { violator, .. } => {
            return Err(CoreError::InvalidPartition {
                reason: format!(
                    "G is not a VC-expander into IS: violator {violator:?} has too \
                     small an outside neighborhood"
                ),
            });
        }
    };

    let mut support: Vec<EdgeId> = Vec::with_capacity(is.len());
    let mut matched_is = vec![false; graph.vertex_count()];
    for &u in vc {
        #[expect(
            clippy::expect_used,
            reason = "Konig-style saturated matching covers every VC vertex"
        )]
        let partner = matching.partner(u).expect("saturated matching covers VC");
        if let Some(matched) = matched_is.get_mut(partner.index()) {
            *matched = true;
        }
        #[expect(clippy::expect_used, reason = "matched pairs are edges of the graph")]
        support.push(
            graph
                .find_edge(u, partner)
                .expect("matched pairs are edges"),
        );
    }
    for &v in is {
        if matched_is.get(v.index()) == Some(&false) {
            // IS is independent, so every neighbor of v lies in VC.
            if let Some(&(_, e)) = graph.incidence(v).first() {
                support.push(e);
            }
        }
    }
    support.sort_unstable();
    support.dedup();

    matching_ne_from_config(
        game,
        MatchingConfig {
            vp_support: {
                let mut s = is.to_vec();
                s.sort_unstable();
                s
            },
            tp_support: support,
        },
    )
}

/// Validates that `(is, vc)` partitions `V` with `is` independent.
fn check_partition(graph: &Graph, is: &[VertexId], vc: &[VertexId]) -> Result<(), CoreError> {
    let mut seen = vec![0u8; graph.vertex_count()];
    for &v in is.iter().chain(vc) {
        let Some(count) = seen.get_mut(v.index()) else {
            return Err(CoreError::InvalidPartition {
                reason: format!("{v} is not a vertex of G"),
            });
        };
        *count = count.saturating_add(1);
    }
    if seen.iter().any(|&c| c != 1) {
        return Err(CoreError::InvalidPartition {
            reason: "IS and VC must partition V".into(),
        });
    }
    if !independent_set::is_independent_set(graph, is) {
        return Err(CoreError::InvalidPartition {
            reason: "IS is not an independent set".into(),
        });
    }
    Ok(())
}

/// Searches for a partition admitting a matching NE by brute force over
/// independent sets (cross-validation of Theorem 2.2 on small graphs).
///
/// Returns the first admitting `IS` in subset order, or `None` when the
/// graph admits no matching NE at all.
///
/// # Panics
///
/// Panics if the graph has more than 20 vertices.
#[must_use]
pub fn find_partition_small(graph: &Graph) -> Option<VertexSet> {
    let n = graph.vertex_count();
    assert!(
        n <= 20,
        "brute-force partition search limited to 20 vertices, got {n}"
    );
    let mut scratch = Vec::new();
    for mask in 0u32..(1u32 << n) {
        let is: VertexSet = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(VertexId::new)
            .collect();
        if partition_admits_with_scratch(graph, &is, &mut scratch) {
            return Some(is);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterization::{verify_mixed_ne, VerificationMode};
    use crate::model::TupleGame;
    use defender_graph::generators;

    #[test]
    fn path4_construction_is_verified_ne() {
        let g = generators::path(4);
        let game = TupleGame::edge_model(&g, 3).unwrap();
        let is: Vec<VertexId> = [0, 3].into_iter().map(VertexId::new).collect();
        let vc: Vec<VertexId> = [1, 2].into_iter().map(VertexId::new).collect();
        let ne = algorithm_a(&game, &is, &vc).unwrap();
        let report = verify_mixed_ne(&game, ne.config(), VerificationMode::Auto).unwrap();
        assert!(report.is_equilibrium(), "{:?}", report.failures());
        assert_eq!(ne.defender_gain(), Ratio::new(3, 2), "ν/|IS| = 3/2");
    }

    #[test]
    fn star_construction() {
        // Star K_{1,4}: IS = leaves, VC = {hub}. Hub matched to one leaf;
        // remaining leaves attach their only edge. Support = all 4 spokes.
        let g = generators::star(4);
        let game = TupleGame::edge_model(&g, 2).unwrap();
        let is: Vec<VertexId> = (1..=4).map(VertexId::new).collect();
        let vc = vec![VertexId::new(0)];
        let ne = algorithm_a(&game, &is, &vc).unwrap();
        assert_eq!(ne.supports().tp_support.len(), 4);
        assert_eq!(ne.defender_gain(), Ratio::new(2, 4));
        let report = verify_mixed_ne(&game, ne.config(), VerificationMode::Auto).unwrap();
        assert!(report.is_equilibrium(), "{:?}", report.failures());
    }

    #[test]
    fn even_cycle_construction() {
        let g = generators::cycle(6);
        let game = TupleGame::edge_model(&g, 6).unwrap();
        let is: Vec<VertexId> = [0, 2, 4].into_iter().map(VertexId::new).collect();
        let vc: Vec<VertexId> = [1, 3, 5].into_iter().map(VertexId::new).collect();
        let ne = algorithm_a(&game, &is, &vc).unwrap();
        let report = verify_mixed_ne(&game, ne.config(), VerificationMode::Auto).unwrap();
        assert!(report.is_equilibrium(), "{:?}", report.failures());
        assert_eq!(ne.defender_gain(), Ratio::from(2), "ν/|IS| = 6/3");
    }

    #[test]
    fn k3_has_no_matching_ne() {
        // The DESIGN.md §5.1 pin: K3 admits no partition at all.
        let g = generators::complete(3);
        assert_eq!(find_partition_small(&g), None);
        let game = TupleGame::edge_model(&g, 1).unwrap();
        let is = vec![VertexId::new(0)];
        let vc: Vec<VertexId> = [1, 2].into_iter().map(VertexId::new).collect();
        let err = algorithm_a(&game, &is, &vc).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPartition { .. }));
    }

    #[test]
    fn odd_cycles_admit_no_matching_ne() {
        for n in [3usize, 5, 7] {
            assert_eq!(find_partition_small(&generators::cycle(n)), None, "C{n}");
        }
    }

    #[test]
    fn bipartite_graphs_admit_matching_ne() {
        for g in [
            generators::path(6),
            generators::cycle(8),
            generators::complete_bipartite(2, 4),
            generators::grid(2, 3),
            generators::star(4),
        ] {
            assert!(find_partition_small(&g).is_some(), "{g:?}");
        }
    }

    #[test]
    fn partition_shape_errors() {
        let g = generators::path(4);
        let game = TupleGame::edge_model(&g, 1).unwrap();
        // Overlapping sets.
        let err = algorithm_a(&game, &[VertexId::new(0)], &[VertexId::new(0)]).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPartition { .. }));
        // Dependent IS.
        let is: Vec<VertexId> = [0, 1].into_iter().map(VertexId::new).collect();
        let vc: Vec<VertexId> = [2, 3].into_iter().map(VertexId::new).collect();
        let err = algorithm_a(&game, &is, &vc).unwrap_err();
        assert!(matches!(err, CoreError::InvalidPartition { .. }));
    }

    #[test]
    fn wrong_width_rejected() {
        let g = generators::path(4);
        let game = TupleGame::new(&g, 2, 1).unwrap();
        let err = algorithm_a(&game, &[VertexId::new(0)], &[VertexId::new(1)]).unwrap_err();
        assert!(matches!(err, CoreError::NotEdgeModel { k: 2 }));
    }

    #[test]
    fn matching_config_predicates() {
        let g = generators::path(4);
        let good = MatchingConfig {
            vp_support: vec![VertexId::new(0), VertexId::new(3)],
            tp_support: vec![EdgeId::new(0), EdgeId::new(2)],
        };
        assert!(good.is_matching_configuration(&g));
        assert!(good.satisfies_lemma_2_1(&g));

        let dependent = MatchingConfig {
            vp_support: vec![VertexId::new(0), VertexId::new(1)],
            tp_support: vec![EdgeId::new(0), EdgeId::new(2)],
        };
        assert!(!dependent.is_matching_configuration(&g));

        let double_incidence = MatchingConfig {
            vp_support: vec![VertexId::new(1)],
            tp_support: vec![EdgeId::new(0), EdgeId::new(1)],
        };
        assert!(!double_incidence.is_matching_configuration(&g));

        let not_cover = MatchingConfig {
            vp_support: vec![VertexId::new(0)],
            tp_support: vec![EdgeId::new(0)],
        };
        assert!(not_cover.is_matching_configuration(&g));
        assert!(!not_cover.satisfies_lemma_2_1(&g));
    }
}
