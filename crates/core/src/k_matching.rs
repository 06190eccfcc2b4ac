//! k-matching configurations and Nash equilibria: Definition 4.1,
//! Observation 4.1, Lemma 4.1 and Corollary 4.11.
//!
//! A *k-matching configuration* generalizes the Edge model's matching
//! configuration: (1) the attackers' support is independent, (2) each
//! support vertex touches exactly one edge of `E(D(tp))`, and (3) every
//! edge of `E(D(tp))` appears in the same number of support tuples. When
//! it additionally satisfies condition 1 of Theorem 3.4, uniform play makes
//! it a *k-matching Nash equilibrium* (Lemma 4.1) with hit probability
//! `k / |E(D(tp))|` on the support (Claim 4.3).

use defender_game::MixedStrategy;
use defender_graph::{edge_cover, independent_set, vertex_cover, EdgeSet, Graph, VertexSet};
use defender_num::Ratio;

use crate::model::{MixedConfig, TupleGame};
use crate::payoff;
use crate::tuple::Tuple;
use crate::CoreError;

/// The support shape of a k-matching configuration (Definition 4.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KMatchingConfig {
    /// `D(VP)` — the common support of every vertex player.
    pub vp_support: VertexSet,
    /// `D(tp)` — the tuple player's support.
    pub tuples: Vec<Tuple>,
}

impl KMatchingConfig {
    /// `E(D(tp))` — the distinct edges across all support tuples, sorted.
    #[must_use]
    pub fn support_edges(&self) -> EdgeSet {
        let mut out: EdgeSet = self
            .tuples
            .iter()
            .flat_map(|t| t.edges().iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Checks Definition 4.1 against a graph and width, reporting the
    /// first violated condition.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NotKMatching`] naming the failed condition.
    pub fn check(&self, graph: &Graph, k: usize) -> Result<(), CoreError> {
        if self.tuples.is_empty() {
            return Err(CoreError::NotKMatching {
                reason: "the tuple player's support is empty".into(),
            });
        }
        for t in &self.tuples {
            t.check_for(graph, k)?;
        }
        // (1) independence.
        if !independent_set::is_independent_set(graph, &self.vp_support) {
            return Err(CoreError::NotKMatching {
                reason: "condition (1): D(VP) is not an independent set".into(),
            });
        }
        // (2) unique incidence with E(D(tp)).
        let support_edges = self.support_edges();
        let mult = edge_cover::cover_multiplicity(graph, &support_edges);
        #[expect(
            clippy::indexing_slicing,
            reason = "mult is sized by vertex_count; VertexId::index is in range"
        )]
        let misfit = self
            .vp_support
            .iter()
            .map(|v| (v, mult[v.index()]))
            .find(|&(_, m)| m != 1);
        if let Some((v, m)) = misfit {
            return Err(CoreError::NotKMatching {
                reason: format!("condition (2): {v} is incident to {m} support edges, expected 1"),
            });
        }
        // (3) equal tuple-multiplicity per edge.
        let counts = self.edge_tuple_counts(graph);
        #[expect(clippy::expect_used, reason = "non-empty support has a positive count")]
        let expected = counts
            .iter()
            .copied()
            .find(|&c| c > 0)
            .expect("non-empty support has edges");
        #[expect(
            clippy::indexing_slicing,
            reason = "counts is sized by edge_count; EdgeId::index is in range"
        )]
        for &e in &support_edges {
            if counts[e.index()] != expected {
                return Err(CoreError::NotKMatching {
                    reason: format!(
                        "condition (3): edge {e} appears in {} tuples, others in {expected}",
                        counts[e.index()]
                    ),
                });
            }
        }
        Ok(())
    }

    /// For every edge of the graph, the number of support tuples containing
    /// it (the `α` of Claim 4.3 on support edges, 0 elsewhere).
    #[must_use]
    pub fn edge_tuple_counts(&self, graph: &Graph) -> Vec<usize> {
        let mut counts = vec![0usize; graph.edge_count()];
        for t in &self.tuples {
            #[expect(
                clippy::indexing_slicing,
                reason = "counts is sized by edge_count; EdgeId::index is in range"
            )]
            for &e in t.edges() {
                counts[e.index()] += 1;
            }
        }
        counts
    }

    /// Whether condition 1 of Theorem 3.4 also holds — the requirement
    /// that upgrades the configuration to an equilibrium (Definition 4.2).
    #[must_use]
    pub fn satisfies_theorem_3_4_condition_1(&self, graph: &Graph) -> bool {
        let support_edges = self.support_edges();
        edge_cover::is_edge_cover(graph, &support_edges)
            && vertex_cover::covers_edges(graph, &self.vp_support, &support_edges)
    }
}

/// A k-matching mixed Nash equilibrium (Definition 4.2): uniform play on a
/// k-matching configuration with covering supports.
#[derive(Clone, Debug)]
pub struct KMatchingNe {
    config: MixedConfig,
    supports: KMatchingConfig,
    defender_gain: Ratio,
    hit_probability: Ratio,
}

impl KMatchingNe {
    /// The mixed configuration (uniform on both supports).
    #[must_use]
    pub fn config(&self) -> &MixedConfig {
        &self.config
    }

    /// The underlying supports.
    #[must_use]
    pub fn supports(&self) -> &KMatchingConfig {
        &self.supports
    }

    /// `IP_tp` — the defender's expected gain `k·ν/|D(VP)|`
    /// (Corollary 4.10).
    #[must_use]
    pub fn defender_gain(&self) -> Ratio {
        self.defender_gain
    }

    /// The hit probability on the attackers' support,
    /// `k / |E(D(tp))|` (Claim 4.3).
    #[must_use]
    pub fn hit_probability(&self) -> Ratio {
        self.hit_probability
    }

    /// Number of support tuples `|D(tp)|` (the `δ` of Lemma 4.8 when built
    /// by the reduction).
    #[must_use]
    pub fn tuple_count(&self) -> usize {
        self.supports.tuples.len()
    }
}

/// Lemma 4.1: equips a k-matching configuration (satisfying condition 1 of
/// Theorem 3.4) with uniform distributions, yielding a mixed Nash
/// equilibrium.
///
/// The construction is verified arithmetically on the way out: the hit
/// probability on the support must equal `k / |E(D(tp))|` (Claim 4.3) and
/// the defender gain `k·ν / |D(VP)|` (Corollary 4.10); both are recomputed
/// from the configuration and asserted.
///
/// # Errors
///
/// - [`CoreError::NotKMatching`] when Definition 4.1 or the covering
///   condition fails;
/// - shape errors from [`MixedConfig::new`].
pub fn k_matching_ne_from_config(
    game: &TupleGame<'_>,
    supports: KMatchingConfig,
) -> Result<KMatchingNe, CoreError> {
    let graph = game.graph();
    supports.check(graph, game.k())?;
    if !supports.satisfies_theorem_3_4_condition_1(graph) {
        return Err(CoreError::NotKMatching {
            reason: "condition 1 of Theorem 3.4 fails: supports do not cover".into(),
        });
    }
    let vp = MixedStrategy::uniform(supports.vp_support.clone());
    let tp = MixedStrategy::uniform(supports.tuples.clone());
    let config = MixedConfig::symmetric(game, vp, tp)?;

    let defender_gain = payoff::expected_ip_tuple_player(game, &config);
    let expected_gain = Ratio::from(game.k()) * Ratio::from(game.attacker_count())
        // divisor nonzero: vp_support is nonempty for a validated k-matching NE
        / Ratio::from(supports.vp_support.len());
    debug_assert_eq!(defender_gain, expected_gain, "Corollary 4.10");

    let support_edges = supports.support_edges();
    // divisor nonzero: a k-matching has k >= 1 support edges
    let hit_probability = Ratio::from(game.k()) / Ratio::from(support_edges.len());
    if cfg!(debug_assertions) {
        let hits = payoff::hit_probabilities(game, &config);
        #[expect(
            clippy::indexing_slicing,
            reason = "hits is sized by vertex_count; VertexId::index is in range"
        )]
        for v in &supports.vp_support {
            debug_assert_eq!(hits[v.index()], hit_probability, "Claim 4.3 at {v}");
        }
    }

    Ok(KMatchingNe {
        config,
        supports,
        defender_gain,
        hit_probability,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterization::{verify_mixed_ne, VerificationMode};
    use defender_graph::{generators, EdgeId, VertexId};

    /// C4 (edges sorted: e0=(0,1), e1=(0,3), e2=(1,2), e3=(2,3)) with
    /// IS = {v0, v2}: support edges e0 = (0,1) and e3 = (2,3); 2-tuples
    /// must pack both edges into one tuple.
    fn c4_k2_config() -> KMatchingConfig {
        KMatchingConfig {
            vp_support: vec![VertexId::new(0), VertexId::new(2)],
            tuples: vec![Tuple::new(vec![EdgeId::new(0), EdgeId::new(3)]).unwrap()],
        }
    }

    #[test]
    fn c4_k2_is_equilibrium() {
        let g = generators::cycle(4);
        let game = TupleGame::new(&g, 2, 4).unwrap();
        let ne = k_matching_ne_from_config(&game, c4_k2_config()).unwrap();
        assert_eq!(ne.defender_gain(), Ratio::from(4), "k·ν/|IS| = 2·4/2");
        assert_eq!(ne.hit_probability(), Ratio::ONE, "k/|E(D(tp))| = 2/2");
        assert_eq!(ne.tuple_count(), 1);
        let report = verify_mixed_ne(&game, ne.config(), VerificationMode::Auto).unwrap();
        assert!(report.is_equilibrium(), "{:?}", report.failures());
    }

    #[test]
    fn observation_4_1_one_matching_is_matching() {
        // A 1-matching configuration is exactly a matching configuration.
        let g = generators::path(4);
        let config = KMatchingConfig {
            vp_support: vec![VertexId::new(0), VertexId::new(3)],
            tuples: vec![Tuple::single(EdgeId::new(0)), Tuple::single(EdgeId::new(2))],
        };
        assert!(config.check(&g, 1).is_ok());
        let as_matching = crate::matching_ne::MatchingConfig {
            vp_support: config.vp_support.clone(),
            tp_support: config.support_edges(),
        };
        assert!(as_matching.is_matching_configuration(&g));
        // And the equilibria coincide.
        let game = TupleGame::new(&g, 1, 2).unwrap();
        let kne = k_matching_ne_from_config(&game, config).unwrap();
        let mne = crate::matching_ne::matching_ne_from_config(&game, as_matching).unwrap();
        assert_eq!(kne.defender_gain(), mne.defender_gain());
    }

    #[test]
    fn condition_1_violation_detected() {
        let g = generators::path(4);
        let dependent = KMatchingConfig {
            vp_support: vec![VertexId::new(0), VertexId::new(1)],
            tuples: vec![Tuple::single(EdgeId::new(0))],
        };
        let err = dependent.check(&g, 1).unwrap_err();
        assert!(err.to_string().contains("condition (1)"));
    }

    #[test]
    fn condition_2_violation_detected() {
        let g = generators::path(4);
        // v1 lies on both support edges e0 = (0,1) and e1 = (1,2).
        let config = KMatchingConfig {
            vp_support: vec![VertexId::new(1)],
            tuples: vec![Tuple::single(EdgeId::new(0)), Tuple::single(EdgeId::new(1))],
        };
        let err = config.check(&g, 1).unwrap_err();
        assert!(err.to_string().contains("condition (2)"), "{err}");
    }

    #[test]
    fn condition_3_violation_detected() {
        let g = generators::cycle(6);
        // Edge e0 appears twice via two tuples, e3 once — unequal counts.
        // C6 sorted edges: e0=(0,1), e1=(0,5), e2=(1,2), e3=(2,3), e4=(3,4), e5=(4,5).
        let config = KMatchingConfig {
            vp_support: vec![VertexId::new(0), VertexId::new(2)],
            tuples: vec![
                Tuple::new(vec![EdgeId::new(0), EdgeId::new(3)]).unwrap(),
                Tuple::new(vec![EdgeId::new(0), EdgeId::new(4)]).unwrap(),
            ],
        };
        let err = config.check(&g, 2).unwrap_err();
        assert!(err.to_string().contains("condition (3)"), "{err}");
    }

    #[test]
    fn covering_failure_detected() {
        let g = generators::path(4);
        // Valid Definition 4.1 shape but not an edge cover of G.
        let config = KMatchingConfig {
            vp_support: vec![VertexId::new(0)],
            tuples: vec![Tuple::single(EdgeId::new(0))],
        };
        assert!(config.check(&g, 1).is_ok());
        assert!(!config.satisfies_theorem_3_4_condition_1(&g));
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let err = k_matching_ne_from_config(&game, config).unwrap_err();
        assert!(err.to_string().contains("condition 1 of Theorem 3.4"));
    }

    #[test]
    fn empty_support_rejected() {
        let g = generators::path(2);
        let config = KMatchingConfig {
            vp_support: vec![VertexId::new(0)],
            tuples: vec![],
        };
        assert!(config.check(&g, 1).is_err());
    }

    #[test]
    fn edge_tuple_counts() {
        let g = generators::cycle(4);
        let config = c4_k2_config();
        let counts = config.edge_tuple_counts(&g);
        assert_eq!(counts[0], 1);
        assert_eq!(counts[3], 1);
        assert_eq!(counts[1], 0);
    }
}
