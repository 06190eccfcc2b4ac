//! The Tuple model `Π_k(G)` (Definition 2.1) and its configurations.

use core::fmt;

use defender_game::MixedStrategy;
use defender_graph::{properties, EdgeSet, Graph, VertexId, VertexSet};

use crate::tuple::Tuple;
use crate::CoreError;

/// An instance `Π_k(G)` of the Tuple model.
///
/// Holds the graph, the defender width `k` (how many links the security
/// software can scan) and the number of vertex players `ν` (attackers).
/// Construction validates the standing assumptions: a non-empty graph with
/// no isolated vertices and `1 ≤ k ≤ m`.
///
/// For `k = 1` the instance *is* the Edge model of \[7\] (see the remark
/// after Definition 2.1); [`EdgeGame`] is a type alias, not a separate
/// implementation, so Observation 4.1 holds by construction.
///
/// # Examples
///
/// ```
/// use defender_core::model::TupleGame;
/// use defender_graph::generators;
///
/// let graph = generators::cycle(6);
/// let game = TupleGame::new(&graph, 2, 4)?;
/// assert_eq!(game.k(), 2);
/// assert_eq!(game.attacker_count(), 4);
/// # Ok::<(), defender_core::CoreError>(())
/// ```
#[derive(Clone, Debug)]
pub struct TupleGame<'g> {
    graph: &'g Graph,
    k: usize,
    attackers: usize,
}

/// The Edge model of \[7\]: the Tuple model at `k = 1`.
pub type EdgeGame<'g> = TupleGame<'g>;

impl<'g> TupleGame<'g> {
    /// Creates `Π_k(G)` with `attackers` vertex players.
    ///
    /// # Errors
    ///
    /// - [`CoreError::Graph`] if the graph is empty or has an isolated
    ///   vertex;
    /// - [`CoreError::InvalidWidth`] if `k` is outside `1..=m`.
    pub fn new(graph: &'g Graph, k: usize, attackers: usize) -> Result<TupleGame<'g>, CoreError> {
        properties::check_game_ready(graph)?;
        if k == 0 || k > graph.edge_count() {
            return Err(CoreError::InvalidWidth {
                k,
                edge_count: graph.edge_count(),
            });
        }
        Ok(TupleGame {
            graph,
            k,
            attackers,
        })
    }

    /// Creates the Edge-model instance `Π_1(G)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TupleGame::new`].
    pub fn edge_model(graph: &'g Graph, attackers: usize) -> Result<EdgeGame<'g>, CoreError> {
        TupleGame::new(graph, 1, attackers)
    }

    /// The same game on the same graph with a different defender width.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidWidth`] if `k` is outside `1..=m`.
    pub fn with_width(&self, k: usize) -> Result<TupleGame<'g>, CoreError> {
        TupleGame::new(self.graph, k, self.attackers)
    }

    /// The underlying graph `G`.
    #[must_use]
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The defender width `k` — how many edges one tuple contains.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of vertex players `ν`.
    #[must_use]
    pub fn attacker_count(&self) -> usize {
        self.attackers
    }

    /// Whether this instance is the Edge model (`k = 1`).
    #[must_use]
    pub fn is_edge_model(&self) -> bool {
        self.k == 1
    }
}

/// A pure configuration: one vertex per attacker plus one defender tuple.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PureConfig {
    /// `s_i` — the vertex chosen by each vertex player, length `ν`.
    pub attacker_choices: Vec<VertexId>,
    /// `s_tp` — the defender's tuple of `k` edges.
    pub defender: Tuple,
}

impl PureConfig {
    /// Validates the configuration against a game.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConfigMismatch`] on any shape violation.
    pub fn check_for(&self, game: &TupleGame<'_>) -> Result<(), CoreError> {
        if self.attacker_choices.len() != game.attacker_count() {
            return Err(CoreError::ConfigMismatch {
                reason: format!(
                    "{} attacker choices for ν = {}",
                    self.attacker_choices.len(),
                    game.attacker_count()
                ),
            });
        }
        if let Some(v) = self
            .attacker_choices
            .iter()
            .find(|v| v.index() >= game.graph().vertex_count())
        {
            return Err(CoreError::ConfigMismatch {
                reason: format!("unknown vertex {v}"),
            });
        }
        self.defender.check_for(game.graph(), game.k())
    }

    /// Individual Profit of vertex player `i` (Definition 2.1): 1 when it
    /// escapes the defender's tuple, 0 when caught.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ ν` or the configuration does not fit `game`.
    #[must_use]
    pub fn ip_vertex_player(&self, game: &TupleGame<'_>, i: usize) -> u64 {
        #[expect(
            clippy::indexing_slicing,
            reason = "documented panic contract: callers keep i below nu"
        )]
        let v = self.attacker_choices[i];
        u64::from(!self.defender.covers(game.graph(), v))
    }

    /// Individual Profit of the tuple player: the number of caught
    /// attackers `|{i : s_i ∈ V(s_tp)}|`.
    #[must_use]
    pub fn ip_tuple_player(&self, game: &TupleGame<'_>) -> u64 {
        self.attacker_choices
            .iter()
            .filter(|&&v| self.defender.covers(game.graph(), v))
            .count() as u64
    }
}

/// A mixed configuration: a probability distribution per player.
///
/// Probabilities are exact rationals ([`defender_num::Ratio`] via
/// [`MixedStrategy`]). Validation against a game checks widths and id
/// ranges once, at construction.
#[derive(Clone, Debug)]
pub struct MixedConfig {
    attacker_strategies: Vec<MixedStrategy<VertexId>>,
    defender: MixedStrategy<Tuple>,
}

impl MixedConfig {
    /// Builds a mixed configuration, validating it against `game`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConfigMismatch`] on any shape violation.
    pub fn new(
        game: &TupleGame<'_>,
        attacker_strategies: Vec<MixedStrategy<VertexId>>,
        defender: MixedStrategy<Tuple>,
    ) -> Result<MixedConfig, CoreError> {
        if attacker_strategies.len() != game.attacker_count() {
            return Err(CoreError::ConfigMismatch {
                reason: format!(
                    "{} attacker strategies for ν = {}",
                    attacker_strategies.len(),
                    game.attacker_count()
                ),
            });
        }
        for s in &attacker_strategies {
            if let Some(v) = s
                .support()
                .into_iter()
                .find(|v| v.index() >= game.graph().vertex_count())
            {
                return Err(CoreError::ConfigMismatch {
                    reason: format!("unknown vertex {v}"),
                });
            }
        }
        for t in defender.support() {
            t.check_for(game.graph(), game.k())?;
        }
        Ok(MixedConfig {
            attacker_strategies,
            defender,
        })
    }

    /// Builds the symmetric configuration where every attacker plays
    /// `attacker` — the shape of every structural NE in the paper.
    ///
    /// # Errors
    ///
    /// Same as [`MixedConfig::new`].
    pub fn symmetric(
        game: &TupleGame<'_>,
        attacker: MixedStrategy<VertexId>,
        defender: MixedStrategy<Tuple>,
    ) -> Result<MixedConfig, CoreError> {
        let attackers = vec![attacker; game.attacker_count()];
        MixedConfig::new(game, attackers, defender)
    }

    /// The mixed strategy of vertex player `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ ν`.
    #[must_use]
    pub fn attacker(&self, i: usize) -> &MixedStrategy<VertexId> {
        #[expect(
            clippy::indexing_slicing,
            reason = "documented panic contract: callers keep i below nu"
        )]
        &self.attacker_strategies[i]
    }

    /// All attacker strategies, in player order.
    #[must_use]
    pub fn attackers(&self) -> &[MixedStrategy<VertexId>] {
        &self.attacker_strategies
    }

    /// The defender's mixed strategy over tuples.
    #[must_use]
    pub fn defender(&self) -> &MixedStrategy<Tuple> {
        &self.defender
    }

    /// `D_s(VP)` — the union of the attackers' supports, sorted.
    #[must_use]
    pub fn vp_support_union(&self) -> VertexSet {
        let mut out: Vec<VertexId> = self
            .attacker_strategies
            .iter()
            .flat_map(|s| s.support().into_iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `D_s(tp)` — the defender's support tuples, sorted.
    #[must_use]
    pub fn tp_support(&self) -> Vec<&Tuple> {
        self.defender.support()
    }

    /// `E(D_s(tp))` — the distinct edges appearing in support tuples,
    /// sorted.
    #[must_use]
    pub fn support_edges(&self) -> EdgeSet {
        let mut out: EdgeSet = self
            .defender
            .support()
            .into_iter()
            .flat_map(|t| t.edges().iter().copied())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// `Tuples_s(v)` — the support tuples whose endpoint set contains `v`.
    #[must_use]
    pub fn tuples_hitting(&self, graph: &Graph, v: VertexId) -> Vec<&Tuple> {
        self.defender
            .support()
            .into_iter()
            .filter(|t| t.covers(graph, v))
            .collect()
    }
}

impl fmt::Display for MixedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MixedConfig(ν = {}, |D(VP)| = {}, |D(tp)| = {})",
            self.attacker_strategies.len(),
            self.vp_support_union().len(),
            self.defender.support_size()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::{generators, EdgeId, GraphBuilder};

    #[test]
    fn game_construction_validates() {
        let g = generators::cycle(4);
        assert!(TupleGame::new(&g, 1, 2).is_ok());
        assert!(TupleGame::new(&g, 4, 2).is_ok());
        assert!(matches!(
            TupleGame::new(&g, 0, 2),
            Err(CoreError::InvalidWidth { k: 0, .. })
        ));
        assert!(matches!(
            TupleGame::new(&g, 5, 2),
            Err(CoreError::InvalidWidth { k: 5, .. })
        ));
    }

    #[test]
    fn game_rejects_degenerate_graphs() {
        let empty = GraphBuilder::new(0).build();
        assert!(matches!(
            TupleGame::new(&empty, 1, 1),
            Err(CoreError::Graph(_))
        ));
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let isolated = b.build();
        assert!(matches!(
            TupleGame::new(&isolated, 1, 1),
            Err(CoreError::Graph(_))
        ));
    }

    #[test]
    fn edge_model_is_k1() {
        let g = generators::path(3);
        let game = TupleGame::edge_model(&g, 2).unwrap();
        assert!(game.is_edge_model());
        assert_eq!(game.k(), 1);
        let wide = game.with_width(2).unwrap();
        assert!(!wide.is_edge_model());
        assert_eq!(wide.attacker_count(), 2);
    }

    #[test]
    fn pure_payoffs_follow_definition() {
        let g = generators::path(4); // edges (0,1),(1,2),(2,3)
        let game = TupleGame::new(&g, 2, 3).unwrap();
        let config = PureConfig {
            attacker_choices: vec![VertexId::new(0), VertexId::new(3), VertexId::new(3)],
            defender: Tuple::new(vec![EdgeId::new(0), EdgeId::new(1)]).unwrap(),
        };
        config.check_for(&game).unwrap();
        // Tuple covers {0,1,2}; attackers at 0 caught, at 3 escape.
        assert_eq!(config.ip_vertex_player(&game, 0), 0);
        assert_eq!(config.ip_vertex_player(&game, 1), 1);
        assert_eq!(config.ip_tuple_player(&game), 1);
    }

    #[test]
    fn pure_config_shape_checks() {
        let g = generators::path(3);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        let short = PureConfig {
            attacker_choices: vec![VertexId::new(0)],
            defender: Tuple::single(EdgeId::new(0)),
        };
        assert!(short.check_for(&game).is_err());
        let ghost = PureConfig {
            attacker_choices: vec![VertexId::new(0), VertexId::new(9)],
            defender: Tuple::single(EdgeId::new(0)),
        };
        assert!(ghost.check_for(&game).is_err());
    }

    #[test]
    fn mixed_config_supports() {
        let g = generators::path(4);
        let game = TupleGame::new(&g, 1, 2).unwrap();
        let vp = MixedStrategy::uniform(vec![VertexId::new(0), VertexId::new(3)]);
        let tp = MixedStrategy::uniform(vec![
            Tuple::single(EdgeId::new(0)),
            Tuple::single(EdgeId::new(2)),
        ]);
        let config = MixedConfig::symmetric(&game, vp, tp).unwrap();
        assert_eq!(
            config.vp_support_union(),
            vec![VertexId::new(0), VertexId::new(3)]
        );
        assert_eq!(config.support_edges(), vec![EdgeId::new(0), EdgeId::new(2)]);
        assert_eq!(config.tp_support().len(), 2);
        assert_eq!(config.tuples_hitting(&g, VertexId::new(1)).len(), 1);
        assert_eq!(config.tuples_hitting(&g, VertexId::new(0)).len(), 1);
        assert!(config.to_string().contains("ν = 2"));
    }

    #[test]
    fn mixed_config_rejects_wrong_width() {
        let g = generators::path(4);
        let game = TupleGame::new(&g, 2, 1).unwrap();
        let vp = MixedStrategy::pure(VertexId::new(0));
        let tp = MixedStrategy::pure(Tuple::single(EdgeId::new(0)));
        assert!(MixedConfig::symmetric(&game, vp, tp).is_err());
    }

    #[test]
    fn mixed_config_rejects_unknown_ids() {
        let g = generators::path(3);
        let game = TupleGame::new(&g, 1, 1).unwrap();
        let vp = MixedStrategy::pure(VertexId::new(7));
        let tp = MixedStrategy::pure(Tuple::single(EdgeId::new(0)));
        assert!(MixedConfig::symmetric(&game, vp, tp).is_err());
    }
}
