//! The Path model — the variant of \[8\] where the defender cleans a
//! *simple path* of `k` edges instead of an arbitrary edge tuple.
//!
//! The paper's related-work section points at this generalization; we
//! implement its pure-equilibrium theory (the analogue of Theorem 3.1),
//! a structural mixed equilibrium on cycles, and an exhaustive verifier
//! over the path strategy space.
//!
//! The analogue of Theorem 3.1 is sharper here: a path of `k` edges has
//! exactly `k + 1` distinct vertices, so a pure NE exists **iff**
//! `k = n − 1` and `G` has a Hamiltonian path. Existence is therefore
//! NP-hard in general — a real qualitative price for the defender's
//! shape constraint, in contrast to the polynomial Corollary 3.2 — and we
//! decide it exactly with a Held–Karp bitmask DP on small graphs.

use defender_game::MixedStrategy;
use defender_graph::{Graph, VertexId};
use defender_num::Ratio;

use crate::model::TupleGame;
use crate::CoreError;

/// A simple path with `k` edges (`k + 1` distinct vertices), the
/// defender's pure strategy in the Path model. Canonicalized so the first
/// endpoint is the smaller of the two ends (paths are undirected).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathStrategy {
    vertices: Vec<VertexId>,
}

impl PathStrategy {
    /// Builds a path strategy from its vertex sequence, validating
    /// simplicity and adjacency in `graph`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ConfigMismatch`] when the sequence is shorter
    /// than two vertices, repeats a vertex, or jumps a non-edge.
    pub fn new(graph: &Graph, mut vertices: Vec<VertexId>) -> Result<PathStrategy, CoreError> {
        if vertices.len() < 2 {
            return Err(CoreError::ConfigMismatch {
                reason: "a path needs at least one edge".into(),
            });
        }
        let mut seen = vec![false; graph.vertex_count()];
        #[expect(
            clippy::indexing_slicing,
            reason = "seen is sized by vertex_count; VertexId::index is in range"
        )]
        for &v in &vertices {
            if seen[v.index()] {
                return Err(CoreError::ConfigMismatch {
                    reason: format!("path repeats vertex {v}"),
                });
            }
            seen[v.index()] = true;
        }
        for (&a, &b) in vertices.iter().zip(vertices.iter().skip(1)) {
            if !graph.has_edge(a, b) {
                return Err(CoreError::ConfigMismatch {
                    reason: format!("({a}, {b}) is not an edge"),
                });
            }
        }
        if vertices.first() > vertices.last() {
            vertices.reverse();
        }
        Ok(PathStrategy { vertices })
    }

    /// The number of edges `k`.
    #[must_use]
    pub fn k(&self) -> usize {
        self.vertices.len() - 1
    }

    /// The vertex sequence (canonical orientation).
    #[must_use]
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Whether the path covers `v`.
    #[must_use]
    pub fn covers(&self, v: VertexId) -> bool {
        self.vertices.contains(&v)
    }
}

/// Enumerates every simple path with exactly `k` edges (as undirected
/// canonical strategies) by DFS.
///
/// # Errors
///
/// Returns [`CoreError::TooLarge`] when more than `limit` paths exist.
pub fn all_paths(graph: &Graph, k: usize, limit: usize) -> Result<Vec<PathStrategy>, CoreError> {
    let mut out = std::collections::BTreeSet::new();
    let mut stack: Vec<VertexId> = Vec::with_capacity(k + 1);
    let mut on_path = vec![false; graph.vertex_count()];

    fn dfs(
        graph: &Graph,
        k: usize,
        limit: usize,
        stack: &mut Vec<VertexId>,
        on_path: &mut [bool],
        out: &mut std::collections::BTreeSet<PathStrategy>,
    ) -> Result<(), CoreError> {
        if stack.len() == k + 1 {
            #[expect(
                clippy::expect_used,
                reason = "DFS extends along edges only, so the stack is a valid path"
            )]
            let path = PathStrategy::new(graph, stack.clone()).expect("DFS builds valid paths");
            out.insert(path);
            if out.len() > limit {
                return Err(CoreError::TooLarge {
                    what: format!("simple paths with {k} edges"),
                    limit,
                });
            }
            return Ok(());
        }
        #[expect(
            clippy::expect_used,
            reason = "the stack starts with the source and never empties"
        )]
        let current = *stack.last().expect("stack starts non-empty");
        let neighbors: Vec<VertexId> = graph.neighbors(current).collect();
        #[expect(
            clippy::indexing_slicing,
            reason = "on_path is sized by vertex_count; VertexId::index is in range"
        )]
        for w in neighbors {
            if !on_path[w.index()] {
                on_path[w.index()] = true;
                stack.push(w);
                dfs(graph, k, limit, stack, on_path, out)?;
                stack.pop();
                on_path[w.index()] = false;
            }
        }
        Ok(())
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "on_path is sized by vertex_count; VertexId::index is in range"
    )]
    for v in graph.vertices() {
        on_path[v.index()] = true;
        stack.push(v);
        dfs(graph, k, limit, &mut stack, &mut on_path, &mut out)?;
        stack.pop();
        on_path[v.index()] = false;
    }
    Ok(out.into_iter().collect())
}

/// Held–Karp bitmask DP: a Hamiltonian path of `graph`, if one exists.
///
/// # Panics
///
/// Panics if the graph has more than 20 vertices.
#[must_use]
#[expect(
    clippy::indexing_slicing,
    reason = "the DP tables are 2^n x n: every mask is at most full < 2^n and every vertex index is below n"
)]
pub fn hamiltonian_path_small(graph: &Graph) -> Option<Vec<VertexId>> {
    let n = graph.vertex_count();
    assert!(n <= 20, "Hamiltonian DP limited to 20 vertices, got {n}");
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some(vec![VertexId::new(0)]);
    }
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    // reach[mask][v]: predecessor vertex + 1, 0 = unreachable, usize::MAX marker via Option.
    let mut pred: Vec<Vec<Option<usize>>> = vec![vec![None; n]; 1 << n];
    let mut reachable = vec![vec![false; n]; 1 << n];
    for v in 0..n {
        reachable[1 << v][v] = true;
    }
    for mask in 1u32..=full {
        for last in 0..n {
            if mask & (1 << last) == 0 || !reachable[mask as usize][last] {
                continue;
            }
            for w in graph.neighbors(VertexId::new(last)) {
                let wi = w.index();
                if mask & (1 << wi) != 0 {
                    continue;
                }
                let next = mask | (1 << wi);
                if !reachable[next as usize][wi] {
                    reachable[next as usize][wi] = true;
                    pred[next as usize][wi] = Some(last);
                }
            }
        }
    }
    let end = (0..n).find(|&v| reachable[full as usize][v])?;
    // Reconstruct.
    let mut path = Vec::with_capacity(n);
    let mut mask = full;
    let mut v = end;
    loop {
        path.push(VertexId::new(v));
        match pred[mask as usize][v] {
            Some(p) => {
                mask &= !(1 << v);
                v = p;
            }
            None => break,
        }
    }
    path.reverse();
    Some(path)
}

/// Outcome of the Path-model pure-NE question.
#[derive(Clone, Debug)]
pub enum PathPureOutcome {
    /// A pure NE exists: the defender walks a Hamiltonian path.
    Exists {
        /// The covering path (`k = n − 1` edges).
        path: PathStrategy,
    },
    /// No pure NE; the reason distinguishes the two failure modes.
    None {
        /// `true` when `k ≠ n − 1` (a `k`-edge path covers `k + 1 < n` or
        /// cannot exist); `false` when `k = n − 1` but no Hamiltonian path.
        width_mismatch: bool,
    },
}

impl PathPureOutcome {
    /// Whether a pure NE exists.
    #[must_use]
    pub fn exists(&self) -> bool {
        matches!(self, PathPureOutcome::Exists { .. })
    }
}

/// The Path-model analogue of Theorem 3.1: a pure NE exists iff the
/// defender can cover all of `V` with one simple `k`-edge path — i.e.
/// `k = n − 1` and `G` is traceable.
///
/// # Errors
///
/// Returns [`CoreError::TooLarge`] for graphs over 20 vertices (existence
/// is NP-hard; only the exact small-instance decider is provided).
pub fn pure_ne_existence_path(game: &TupleGame<'_>) -> Result<PathPureOutcome, CoreError> {
    let graph = game.graph();
    let n = graph.vertex_count();
    if n > 20 {
        return Err(CoreError::TooLarge {
            what: "Hamiltonian-path decision".into(),
            limit: 20,
        });
    }
    if game.k() + 1 != n {
        return Ok(PathPureOutcome::None {
            width_mismatch: true,
        });
    }
    match hamiltonian_path_small(graph) {
        #[expect(
            clippy::expect_used,
            reason = "the Hamiltonian DP reconstructs an edge-connected order"
        )]
        Some(vertices) => Ok(PathPureOutcome::Exists {
            path: PathStrategy::new(graph, vertices).expect("DP emits a valid path"),
        }),
        None => Ok(PathPureOutcome::None {
            width_mismatch: false,
        }),
    }
}

/// A mixed Nash equilibrium of the Path model.
#[derive(Clone, Debug)]
pub struct PathModelNe {
    /// The common attacker strategy (symmetric profile).
    pub attacker: MixedStrategy<VertexId>,
    /// The defender's mixed strategy over paths.
    pub defender: MixedStrategy<PathStrategy>,
    /// The defender's expected gain.
    pub defender_gain: Ratio,
}

/// The rotation equilibrium of the Path model on the cycle `C_n`:
/// attackers uniform on all `n` vertices, defender uniform on the `n`
/// rotations of a `k`-edge arc. Every vertex is hit with probability
/// `(k + 1)/n` and every `k`-edge path of `C_n` is an arc covering exactly
/// `k + 1` vertices, so both players are indifferent — a Nash equilibrium
/// with `IP_tp = (k + 1)·ν/n`.
///
/// # Errors
///
/// Returns [`CoreError::ConfigMismatch`] when the graph is not a cycle or
/// `k ≥ n − 1` fails (`k + 1 ≤ n` arcs must be proper).
pub fn cycle_path_ne(game: &TupleGame<'_>) -> Result<PathModelNe, CoreError> {
    let graph = game.graph();
    let n = graph.vertex_count();
    let k = game.k();
    let is_cycle = defender_graph::properties::regularity(graph) == Some(2)
        && defender_graph::properties::is_connected(graph)
        && graph.edge_count() == n;
    if !is_cycle {
        return Err(CoreError::ConfigMismatch {
            reason: "the rotation equilibrium is defined on cycles".into(),
        });
    }
    if k + 1 > n {
        return Err(CoreError::ConfigMismatch {
            reason: format!("an arc of {k} edges does not fit in C{n}"),
        });
    }
    // Walk the cycle once to get a rotation order.
    let order = cycle_order(graph);
    let arcs: Vec<PathStrategy> = (0..n)
        .map(|start| {
            let vertices: Vec<VertexId> = order
                .iter()
                .cycle()
                .skip(start)
                .take(k + 1)
                .copied()
                .collect();
            #[expect(
                clippy::expect_used,
                reason = "consecutive cycle vertices are adjacent, so arcs are paths"
            )]
            PathStrategy::new(graph, vertices).expect("arcs of a cycle are paths")
        })
        .collect();
    let attacker = MixedStrategy::uniform(graph.vertices().collect());
    let defender = MixedStrategy::uniform(arcs);
    // divisor nonzero: n = vertex_count >= 1 for a constructed cycle game
    let defender_gain = Ratio::from(k + 1) * Ratio::from(game.attacker_count()) / Ratio::from(n);
    Ok(PathModelNe {
        attacker,
        defender,
        defender_gain,
    })
}

/// The vertices of a cycle in traversal order.
fn cycle_order(graph: &Graph) -> Vec<VertexId> {
    let start = VertexId::new(0);
    let mut order = vec![start];
    let mut prev = start;
    #[expect(
        clippy::expect_used,
        reason = "cycle graphs are 2-regular; every vertex has neighbors"
    )]
    let mut current = graph.neighbors(start).next().expect("cycles have edges");
    while current != start {
        order.push(current);
        #[expect(
            clippy::expect_used,
            reason = "cycle vertices have exactly two neighbors"
        )]
        let next = graph
            .neighbors(current)
            .find(|&w| w != prev)
            .expect("cycle vertices have two neighbors");
        prev = current;
        current = next;
    }
    order
}

/// Exhaustively verifies a Path-model mixed profile: attackers must sit on
/// minimum-hit vertices and the defender's support paths must carry the
/// maximum attacker mass over *all* `k`-edge paths.
///
/// # Errors
///
/// Returns [`CoreError::TooLarge`] when the path space exceeds `limit`.
pub fn verify_path_ne(
    game: &TupleGame<'_>,
    ne: &PathModelNe,
    limit: usize,
) -> Result<bool, CoreError> {
    let graph = game.graph();
    // Hit probabilities.
    let mut hit = vec![Ratio::ZERO; graph.vertex_count()];
    for (p, prob) in ne.defender.iter() {
        #[expect(
            clippy::indexing_slicing,
            reason = "hit is sized by vertex_count; VertexId::index is in range"
        )]
        for &v in p.vertices() {
            hit[v.index()] += prob;
        }
    }
    let min_hit = hit.iter().copied().min().unwrap_or(Ratio::ZERO);
    #[expect(
        clippy::indexing_slicing,
        reason = "hit is sized by vertex_count; VertexId::index is in range"
    )]
    for (v, prob) in ne.attacker.iter() {
        if prob > Ratio::ZERO && hit[v.index()] != min_hit {
            return Ok(false);
        }
    }
    // Masses (symmetric attackers).
    let nu = Ratio::from(game.attacker_count());
    let mass: Vec<Ratio> = graph
        .vertices()
        .map(|v| ne.attacker.probability(&v) * nu)
        .collect();
    #[expect(
        clippy::indexing_slicing,
        reason = "mass is sized by vertex_count; VertexId::index is in range"
    )]
    let path_mass =
        |p: &PathStrategy| -> Ratio { p.vertices().iter().map(|v| mass[v.index()]).sum() };
    let max_mass = all_paths(graph, game.k(), limit)?
        .iter()
        .map(path_mass)
        .max()
        .unwrap_or(Ratio::ZERO);
    for (p, prob) in ne.defender.iter() {
        if prob > Ratio::ZERO && path_mass(p) != max_mass {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::generators;

    #[test]
    fn path_strategy_validation() {
        let g = generators::cycle(5);
        let order: Vec<VertexId> = [0, 1, 2].into_iter().map(VertexId::new).collect();
        let p = PathStrategy::new(&g, order).unwrap();
        assert_eq!(p.k(), 2);
        assert!(p.covers(VertexId::new(1)));
        assert!(!p.covers(VertexId::new(3)));

        let not_adjacent = PathStrategy::new(&g, vec![VertexId::new(0), VertexId::new(2)]);
        assert!(not_adjacent.is_err());
        let repeated = PathStrategy::new(
            &g,
            vec![VertexId::new(0), VertexId::new(1), VertexId::new(0)],
        );
        assert!(repeated.is_err());
        let short = PathStrategy::new(&g, vec![VertexId::new(0)]);
        assert!(short.is_err());
    }

    #[test]
    fn canonical_orientation() {
        let g = generators::path(3);
        let forward = PathStrategy::new(
            &g,
            vec![VertexId::new(0), VertexId::new(1), VertexId::new(2)],
        )
        .unwrap();
        let backward = PathStrategy::new(
            &g,
            vec![VertexId::new(2), VertexId::new(1), VertexId::new(0)],
        )
        .unwrap();
        assert_eq!(forward, backward);
    }

    #[test]
    fn all_paths_counts() {
        // C5: k-edge arcs, one per starting vertex: 5 for each k < 5.
        let g = generators::cycle(5);
        assert_eq!(all_paths(&g, 1, 1000).unwrap().len(), 5);
        assert_eq!(all_paths(&g, 2, 1000).unwrap().len(), 5);
        assert_eq!(all_paths(&g, 3, 1000).unwrap().len(), 5);
        // P4 has 3 single edges, 2 two-edge paths, 1 three-edge path.
        let p = generators::path(4);
        assert_eq!(all_paths(&p, 1, 1000).unwrap().len(), 3);
        assert_eq!(all_paths(&p, 2, 1000).unwrap().len(), 2);
        assert_eq!(all_paths(&p, 3, 1000).unwrap().len(), 1);
    }

    #[test]
    fn all_paths_guard_fires() {
        let g = generators::complete(8);
        assert!(matches!(
            all_paths(&g, 5, 100),
            Err(CoreError::TooLarge { .. })
        ));
    }

    #[test]
    fn hamiltonian_dp_on_known_graphs() {
        assert!(hamiltonian_path_small(&generators::path(6)).is_some());
        assert!(hamiltonian_path_small(&generators::cycle(7)).is_some());
        assert!(hamiltonian_path_small(&generators::complete(5)).is_some());
        assert!(hamiltonian_path_small(&generators::petersen()).is_some());
        assert!(hamiltonian_path_small(&generators::star(3)).is_none());
        assert!(hamiltonian_path_small(&generators::complete_bipartite(2, 4)).is_none());
    }

    #[test]
    fn hamiltonian_dp_result_is_a_valid_path() {
        let g = generators::grid(3, 3);
        let path = hamiltonian_path_small(&g).expect("grids are traceable");
        assert_eq!(path.len(), 9);
        let strategy = PathStrategy::new(&g, path).unwrap();
        assert_eq!(strategy.k(), 8);
    }

    #[test]
    fn pure_frontier_is_hamiltonicity() {
        // C6: traceable; pure NE iff k = 5.
        let g = generators::cycle(6);
        for k in 1..=5usize {
            let game = TupleGame::new(&g, k, 2).unwrap();
            let outcome = pure_ne_existence_path(&game).unwrap();
            assert_eq!(outcome.exists(), k == 5, "k = {k}");
        }
        // Star K_{1,4}: k = n − 1 = 4 > m? m = 4 ≥ 4 — valid width, but not
        // traceable.
        let star = generators::star(4);
        let game = TupleGame::new(&star, 4, 2).unwrap();
        let outcome = pure_ne_existence_path(&game).unwrap();
        assert!(!outcome.exists());
        assert!(matches!(
            outcome,
            PathPureOutcome::None {
                width_mismatch: false
            }
        ));
    }

    #[test]
    fn large_instances_rejected() {
        let g = generators::cycle(30);
        let game = TupleGame::new(&g, 2, 1).unwrap();
        assert!(matches!(
            pure_ne_existence_path(&game),
            Err(CoreError::TooLarge { .. })
        ));
    }

    #[test]
    fn rotation_equilibrium_verifies() {
        for n in [5usize, 6, 9] {
            let g = generators::cycle(n);
            for k in 1..=3usize {
                let game = TupleGame::new(&g, k, 4).unwrap();
                let ne = cycle_path_ne(&game).unwrap();
                assert_eq!(
                    ne.defender_gain,
                    Ratio::from(k + 1) * Ratio::from(4) / Ratio::from(n)
                );
                assert!(verify_path_ne(&game, &ne, 10_000).unwrap(), "C{n}, k = {k}");
            }
        }
    }

    #[test]
    fn rotation_equilibrium_beats_tuple_model_gain() {
        // On cycles the path defender covers k + 1 vertices per strategy vs
        // the tuple defender's 2k — the tuple defender does better for
        // k ≥ 1 (2k ≥ k + 1), quantifying the cost of the path shape.
        let g = generators::cycle(8);
        let game = TupleGame::new(&g, 2, 4).unwrap();
        let path_ne = cycle_path_ne(&game).unwrap();
        let tuple_ne = crate::covering_ne::covering_ne(&game).unwrap();
        assert!(tuple_ne.defender_gain() >= path_ne.defender_gain);
    }

    #[test]
    fn non_cycles_rejected_for_rotation_ne() {
        let g = generators::path(5);
        let game = TupleGame::new(&g, 2, 1).unwrap();
        assert!(cycle_path_ne(&game).is_err());
    }

    #[test]
    fn verify_rejects_bad_profiles() {
        let g = generators::cycle(6);
        let game = TupleGame::new(&g, 2, 2).unwrap();
        let mut ne = cycle_path_ne(&game).unwrap();
        // Attacker concentrated on one vertex: defender support no longer
        // uniformly maximal.
        ne.attacker = MixedStrategy::pure(VertexId::new(0));
        assert!(!verify_path_ne(&game, &ne, 10_000).unwrap());
    }
}
