//! Shared workload definitions for the experiments.

use defender_graph::{generators, Graph};
use defender_num::rng::StdRng;

/// The standard deterministic family zoo: `(name, graph)`.
#[must_use]
pub fn deterministic_families() -> Vec<(&'static str, Graph)> {
    vec![
        ("path P8", generators::path(8)),
        ("path P15", generators::path(15)),
        ("cycle C6", generators::cycle(6)),
        ("cycle C7", generators::cycle(7)),
        ("cycle C12", generators::cycle(12)),
        ("star K_{1,6}", generators::star(6)),
        ("wheel W6", generators::wheel(6)),
        ("complete K5", generators::complete(5)),
        ("complete K6", generators::complete(6)),
        ("K_{2,5}", generators::complete_bipartite(2, 5)),
        ("K_{4,4}", generators::complete_bipartite(4, 4)),
        ("grid 3x4", generators::grid(3, 4)),
        ("grid 4x4", generators::grid(4, 4)),
        ("hypercube Q3", generators::hypercube(3)),
        ("hypercube Q4", generators::hypercube(4)),
        ("Petersen", generators::petersen()),
        ("ladder L5", generators::ladder(5)),
    ]
}

/// The bipartite subset of the zoo (instances where Theorem 5.1 applies).
#[must_use]
pub fn bipartite_families() -> Vec<(&'static str, Graph)> {
    deterministic_families()
        .into_iter()
        .filter(|(_, g)| defender_graph::properties::is_bipartite(g))
        .collect()
}

/// Seeded random connected graphs of a given size.
#[must_use]
pub fn random_connected(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnp_connected(n, p, &mut rng)
}

/// Seeded random bipartite graph.
#[must_use]
pub fn random_bipartite(a: usize, b: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::random_bipartite(a, b, p, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_is_game_ready() {
        for (name, g) in deterministic_families() {
            assert!(!g.has_isolated_vertex(), "{name}");
            assert!(g.edge_count() >= 1, "{name}");
        }
    }

    #[test]
    fn bipartite_subset_is_bipartite() {
        let all = deterministic_families().len();
        let bip = bipartite_families();
        assert!(!bip.is_empty() && bip.len() < all);
    }
}
