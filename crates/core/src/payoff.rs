//! Hit probabilities, vertex-player mass and expected payoffs
//! (equations (1) and (2) of the paper), all in exact rationals.

use defender_graph::{EdgeId, VertexId};
use defender_num::{Ratio, RatioAccum};

use crate::model::{MixedConfig, TupleGame};
use crate::tuple::Tuple;

/// `P_s(Hit(v))` for every vertex: the probability that the defender's
/// sampled tuple has `v` among its endpoints.
///
/// Computed in one pass over the defender's support: each support tuple
/// adds its probability to each of its distinct endpoints.
#[must_use]
pub fn hit_probabilities(game: &TupleGame<'_>, config: &MixedConfig) -> Vec<Ratio> {
    let graph = game.graph();
    // Per-vertex deferred accumulators: one gcd per vertex at the end
    // instead of one per support-tuple increment.
    let mut hit: Vec<RatioAccum> = (0..graph.vertex_count())
        .map(|_| RatioAccum::new())
        .collect();
    for (t, p) in config.defender().iter() {
        for v in t.vertices(graph) {
            #[expect(
                clippy::indexing_slicing,
                reason = "hit is sized by vertex_count; VertexId::index is in range"
            )]
            hit[v.index()].add(p);
        }
    }
    hit.into_iter().map(RatioAccum::finish).collect()
}

/// `P_s(Hit(v))` for a single vertex.
#[must_use]
pub fn hit_probability(game: &TupleGame<'_>, config: &MixedConfig, v: VertexId) -> Ratio {
    Ratio::sum_iter(
        config
            .tuples_hitting(game.graph(), v)
            .into_iter()
            .map(|t| config.defender().probability(t)),
    )
}

/// `m_s(v)` for every vertex: the expected number of vertex players
/// choosing `v` (sum of per-attacker probabilities).
#[must_use]
pub fn vertex_mass(game: &TupleGame<'_>, config: &MixedConfig) -> Vec<Ratio> {
    let mut mass: Vec<RatioAccum> = (0..game.graph().vertex_count())
        .map(|_| RatioAccum::new())
        .collect();
    for s in config.attackers() {
        for (v, p) in s.iter() {
            #[expect(
                clippy::indexing_slicing,
                reason = "mass is sized by vertex_count; VertexId::index is in range"
            )]
            mass[v.index()].add(p);
        }
    }
    mass.into_iter().map(RatioAccum::finish).collect()
}

/// `m_s(e) = m_s(u) + m_s(v)` for an edge `e = (u, v)`.
#[must_use]
#[expect(
    clippy::indexing_slicing,
    reason = "mass is sized by vertex_count; VertexId::index is in range"
)]
pub fn edge_mass(game: &TupleGame<'_>, config: &MixedConfig, e: EdgeId) -> Ratio {
    let mass = vertex_mass(game, config);
    let ep = game.graph().endpoints(e);
    mass[ep.u().index()] + mass[ep.v().index()]
}

/// `m_s(t) = Σ_{v ∈ V(t)} m_s(v)`: the expected number of vertex players
/// sitting on the endpoints of tuple `t` (distinct endpoints counted once).
#[must_use]
pub fn tuple_mass(game: &TupleGame<'_>, config: &MixedConfig, t: &Tuple) -> Ratio {
    let mass = vertex_mass(game, config);
    tuple_mass_with(&mass, game, t)
}

/// [`tuple_mass`] with a precomputed vertex-mass vector (avoids
/// recomputation in sweeps over many tuples).
#[must_use]
pub fn tuple_mass_with(mass: &[Ratio], game: &TupleGame<'_>, t: &Tuple) -> Ratio {
    #[expect(
        clippy::indexing_slicing,
        reason = "mass is sized by vertex_count; VertexId::index is in range"
    )]
    Ratio::sum_iter(
        t.vertices(game.graph())
            .into_iter()
            .map(|v| mass[v.index()]),
    )
}

/// Equation (1): the expected Individual Profit of vertex player `i`,
/// `Σ_v P(vp_i, v) · (1 − P(Hit(v)))`.
///
/// # Panics
///
/// Panics if `i ≥ ν`.
#[must_use]
pub fn expected_ip_vertex_player(game: &TupleGame<'_>, config: &MixedConfig, i: usize) -> Ratio {
    let hit = hit_probabilities(game, config);
    #[expect(
        clippy::indexing_slicing,
        reason = "hit is sized by vertex_count; VertexId::index is in range"
    )]
    Ratio::dot_iter(
        config
            .attacker(i)
            .iter()
            .map(|(v, p)| (p, Ratio::ONE - hit[v.index()])),
    )
}

/// Equation (2): the expected Individual Profit of the tuple player,
/// `Σ_t P(tp, t) · m_s(t)` — the expected number of arrested attackers.
#[must_use]
pub fn expected_ip_tuple_player(game: &TupleGame<'_>, config: &MixedConfig) -> Ratio {
    let mass = vertex_mass(game, config);
    Ratio::dot_iter(
        config
            .defender()
            .iter()
            .map(|(t, p)| (p, tuple_mass_with(&mass, game, t))),
    )
}

/// Conservation check behind Claim 3.7: total vertex mass equals `ν`.
#[must_use]
pub fn total_mass(game: &TupleGame<'_>, config: &MixedConfig) -> Ratio {
    Ratio::sum_iter(vertex_mass(game, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_game::MixedStrategy;
    use defender_graph::generators;

    /// Path P4 with k = 1, ν = 2: attackers uniform on {v0, v3}, defender
    /// uniform on {e0, e2} = {(0,1), (2,3)}.
    fn sample<'g>(graph: &'g defender_graph::Graph) -> (TupleGame<'g>, MixedConfig) {
        let game = TupleGame::new(graph, 1, 2).unwrap();
        let vp = MixedStrategy::uniform(vec![VertexId::new(0), VertexId::new(3)]);
        let tp = MixedStrategy::uniform(vec![
            Tuple::single(EdgeId::new(0)),
            Tuple::single(EdgeId::new(2)),
        ]);
        let config = MixedConfig::symmetric(&game, vp, tp).unwrap();
        (game, config)
    }

    #[test]
    fn hit_probabilities_per_vertex() {
        let g = generators::path(4);
        let (game, config) = sample(&g);
        let hit = hit_probabilities(&game, &config);
        // Each support edge has probability 1/2 and covers its endpoints.
        let half = Ratio::new(1, 2);
        assert_eq!(hit, vec![half, half, half, half]);
        assert_eq!(hit_probability(&game, &config, VertexId::new(2)), half);
    }

    #[test]
    fn vertex_mass_sums_attackers() {
        let g = generators::path(4);
        let (game, config) = sample(&g);
        let mass = vertex_mass(&game, &config);
        // Two attackers, each 1/2 on v0 and v3.
        assert_eq!(mass[0], Ratio::ONE);
        assert_eq!(mass[3], Ratio::ONE);
        assert_eq!(mass[1], Ratio::ZERO);
        assert_eq!(total_mass(&game, &config), Ratio::from(2));
    }

    #[test]
    fn edge_and_tuple_mass() {
        let g = generators::path(4);
        let (game, config) = sample(&g);
        assert_eq!(edge_mass(&game, &config, EdgeId::new(0)), Ratio::ONE);
        assert_eq!(edge_mass(&game, &config, EdgeId::new(1)), Ratio::ZERO);
        let both = Tuple::new(vec![EdgeId::new(0), EdgeId::new(2)]).unwrap();
        let game2 = TupleGame::new(&g, 2, 2).unwrap();
        let config2 = MixedConfig::symmetric(
            &game2,
            MixedStrategy::uniform(vec![VertexId::new(0), VertexId::new(3)]),
            MixedStrategy::pure(both.clone()),
        )
        .unwrap();
        assert_eq!(tuple_mass(&game2, &config2, &both), Ratio::from(2));
    }

    #[test]
    fn tuple_mass_counts_shared_endpoint_once() {
        // Star: edges (0,1),(0,2),(0,3); mass only on hub v0.
        let g = generators::star(3);
        let game = TupleGame::new(&g, 2, 1).unwrap();
        let config = MixedConfig::symmetric(
            &game,
            MixedStrategy::pure(VertexId::new(0)),
            MixedStrategy::pure(Tuple::new(vec![EdgeId::new(0), EdgeId::new(1)]).unwrap()),
        )
        .unwrap();
        let t = Tuple::new(vec![EdgeId::new(0), EdgeId::new(1)]).unwrap();
        // Hub appears in both edges but V(t) counts it once.
        assert_eq!(tuple_mass(&game, &config, &t), Ratio::ONE);
    }

    #[test]
    fn expected_payoffs_match_hand_computation() {
        let g = generators::path(4);
        let (game, config) = sample(&g);
        // Every vertex has hit probability 1/2, so each attacker escapes
        // with probability 1/2.
        assert_eq!(
            expected_ip_vertex_player(&game, &config, 0),
            Ratio::new(1, 2)
        );
        assert_eq!(
            expected_ip_vertex_player(&game, &config, 1),
            Ratio::new(1, 2)
        );
        // Defender: each support edge carries expected mass 1.
        assert_eq!(expected_ip_tuple_player(&game, &config), Ratio::ONE);
    }

    #[test]
    fn zero_attackers_degenerate() {
        let g = generators::path(2);
        let game = TupleGame::new(&g, 1, 0).unwrap();
        let config = MixedConfig::new(
            &game,
            vec![],
            MixedStrategy::pure(Tuple::single(EdgeId::new(0))),
        )
        .unwrap();
        assert_eq!(expected_ip_tuple_player(&game, &config), Ratio::ZERO);
        assert_eq!(total_mass(&game, &config), Ratio::ZERO);
    }
}
