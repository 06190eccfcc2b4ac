//! Graph generators: the workload families used by the experiments.
//!
//! Deterministic families (paths, cycles, stars, wheels, complete and
//! complete bipartite graphs, grids, hypercubes, circulants, ladders, the
//! Petersen graph) plus seeded random families (`G(n, p)`, random bipartite,
//! random trees). Random generators take an explicit [`Rng`] so every
//! experiment is reproducible from a seed.

use defender_num::rng::Rng;

use crate::{Graph, GraphBuilder};

/// The path `P_n` on `n` vertices (`n - 1` edges).
///
/// # Examples
///
/// ```
/// let g = defender_graph::generators::path(4);
/// assert_eq!((g.vertex_count(), g.edge_count()), (4, 3));
/// ```
#[must_use]
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge(i - 1, i);
    }
    b.build()
}

/// The cycle `C_n` on `n ≥ 3` vertices.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices, got {n}");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i, (i + 1) % n);
    }
    b.build()
}

/// The star `K_{1,leaves}`: vertex 0 is the center.
///
/// # Panics
///
/// Panics if `leaves == 0`.
#[must_use]
pub fn star(leaves: usize) -> Graph {
    assert!(leaves >= 1, "a star needs at least one leaf");
    let mut b = GraphBuilder::new(leaves + 1);
    for i in 1..=leaves {
        b.add_edge(0, i);
    }
    b.build()
}

/// The wheel `W_n`: a cycle on `n ≥ 3` rim vertices plus a hub (vertex 0)
/// adjacent to every rim vertex.
///
/// # Panics
///
/// Panics if `n < 3`.
#[must_use]
pub fn wheel(n: usize) -> Graph {
    assert!(
        n >= 3,
        "a wheel needs a rim of at least 3 vertices, got {n}"
    );
    let mut b = GraphBuilder::new(n + 1);
    for i in 1..=n {
        b.add_edge(0, i);
        let next = if i == n { 1 } else { i + 1 };
        b.add_edge(i, next);
    }
    b.build()
}

/// The complete graph `K_n`.
#[must_use]
pub fn complete(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.add_edge(i, j);
        }
    }
    b.build()
}

/// The complete bipartite graph `K_{a,b}`: vertices `0..a` on the left,
/// `a..a+b` on the right.
#[must_use]
pub fn complete_bipartite(a: usize, b: usize) -> Graph {
    let mut builder = GraphBuilder::new(a + b);
    for i in 0..a {
        for j in 0..b {
            builder.add_edge(i, a + j);
        }
    }
    builder.build()
}

/// The `rows × cols` grid graph; vertex `(r, c)` has index `r * cols + c`.
#[must_use]
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let idx = r * cols + c;
            if c + 1 < cols {
                b.add_edge(idx, idx + 1);
            }
            if r + 1 < rows {
                b.add_edge(idx, idx + cols);
            }
        }
    }
    b.build()
}

/// The `d`-dimensional hypercube `Q_d` on `2^d` vertices.
///
/// # Panics
///
/// Panics if `d > 20` (guards against accidental huge allocations).
#[must_use]
pub fn hypercube(d: u32) -> Graph {
    assert!(d <= 20, "hypercube dimension {d} is too large");
    let n = 1usize << d;
    let mut b = GraphBuilder::new(n);
    for v in 0..n {
        for bit in 0..d {
            let w = v ^ (1 << bit);
            if w > v {
                b.add_edge(v, w);
            }
        }
    }
    b.build()
}

/// The Petersen graph (10 vertices, 15 edges, 3-regular, non-bipartite).
#[must_use]
pub fn petersen() -> Graph {
    let mut b = GraphBuilder::new(10);
    for i in 0..5 {
        b.add_edge(i, (i + 1) % 5); // outer pentagon
        b.add_edge(5 + i, 5 + (i + 2) % 5); // inner pentagram
        b.add_edge(i, 5 + i); // spokes
    }
    b.build()
}

/// The ladder graph `L_n`: two paths of length `n` joined by rungs
/// (`2n` vertices, `3n - 2` edges).
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn ladder(n: usize) -> Graph {
    assert!(n >= 1, "a ladder needs at least one rung");
    let mut b = GraphBuilder::new(2 * n);
    for i in 0..n {
        b.add_edge(i, n + i); // rung
        if i + 1 < n {
            b.add_edge(i, i + 1);
            b.add_edge(n + i, n + i + 1);
        }
    }
    b.build()
}

/// The circulant graph `C_n(offsets)`: vertex `i` is adjacent to
/// `i ± o (mod n)` for every offset `o`. With distinct offsets
/// `0 < o < n/2` the result is `2·|offsets|`-regular.
///
/// # Panics
///
/// Panics if any offset is `0` or `≥ n`, or if `n == 0`.
#[must_use]
pub fn circulant(n: usize, offsets: &[usize]) -> Graph {
    assert!(n > 0, "circulant needs at least one vertex");
    let mut b = GraphBuilder::new(n);
    for &o in offsets {
        assert!(o > 0 && o < n, "offset {o} out of range 1..{n}");
        for i in 0..n {
            b.add_edge(i, (i + o) % n);
        }
    }
    b.build()
}

/// A uniformly random labelled tree on `n` vertices (via a random Prüfer
/// sequence), so `n - 1` edges and always connected.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    assert!(n >= 1, "a tree needs at least one vertex");
    if n == 1 {
        return GraphBuilder::new(1).build();
    }
    if n == 2 {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1);
        return b.build();
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.gen_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &p in &prufer {
        degree[p] += 1;
    }
    let mut b = GraphBuilder::new(n);
    // Min-heap of current leaves.
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &p in &prufer {
        #[expect(
            clippy::expect_used,
            reason = "Prüfer invariant: n - 2 symbols over n vertices leave a leaf at every step"
        )]
        let std::cmp::Reverse(leaf) = leaves.pop().expect("Prüfer decoding always has a leaf");
        b.add_edge(leaf, p);
        degree[p] -= 1;
        if degree[p] == 1 {
            leaves.push(std::cmp::Reverse(p));
        }
    }
    #[expect(
        clippy::expect_used,
        reason = "Prüfer invariant: exactly two leaves remain after the main loop"
    )]
    let std::cmp::Reverse(a) = leaves.pop().expect("two leaves remain");
    #[expect(
        clippy::expect_used,
        reason = "Prüfer invariant: exactly two leaves remain after the main loop"
    )]
    let std::cmp::Reverse(c) = leaves.pop().expect("two leaves remain");
    b.add_edge(a, c);
    b.build()
}

/// The Erdős–Rényi random graph `G(n, p)`: each of the `C(n, 2)` possible
/// edges is present independently with probability `p`.
///
/// # Panics
///
/// Panics if `p` is not in `[0, 1]`.
#[must_use]
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p = {p} is not a probability");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                b.add_edge(i, j);
            }
        }
    }
    b.build()
}

/// A connected `G(n, p)` variant: a uniformly random spanning tree is laid
/// down first, then each remaining pair is added with probability `p`.
///
/// Guarantees connectivity (hence no isolated vertices) for any `p`,
/// which makes it game-ready for the Tuple model.
///
/// # Panics
///
/// Panics if `n == 0` or `p` is not in `[0, 1]`.
#[must_use]
pub fn gnp_connected<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p = {p} is not a probability");
    let tree = random_tree(n, rng);
    let mut b = GraphBuilder::new(n);
    for e in tree.edges() {
        let ep = tree.endpoints(e);
        b.add_edge(ep.u().index(), ep.v().index());
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if !b.has_edge(i, j) && rng.gen_bool(p) {
                b.add_edge(i, j);
            }
        }
    }
    b.build()
}

/// A random bipartite graph with sides of size `a` (vertices `0..a`) and
/// `b` (vertices `a..a+b`); each cross pair appears with probability `p`.
/// Every vertex is then guaranteed one incident edge (a random partner),
/// so the result is game-ready.
///
/// # Panics
///
/// Panics if `a == 0`, `b == 0`, or `p` is not in `[0, 1]`.
#[must_use]
pub fn random_bipartite<R: Rng + ?Sized>(a: usize, b: usize, p: f64, rng: &mut R) -> Graph {
    assert!(
        a > 0 && b > 0,
        "both sides must be non-empty (got {a}, {b})"
    );
    assert!((0.0..=1.0).contains(&p), "p = {p} is not a probability");
    let mut builder = GraphBuilder::new(a + b);
    for i in 0..a {
        for j in 0..b {
            if rng.gen_bool(p) {
                builder.add_edge(i, a + j);
            }
        }
    }
    // Patch isolated vertices with a uniformly random partner across the cut.
    let g = builder.build();
    let mut builder = GraphBuilder::new(a + b);
    for e in g.edges() {
        let ep = g.endpoints(e);
        builder.add_edge(ep.u().index(), ep.v().index());
    }
    for i in 0..a {
        if g.degree(crate::VertexId::new(i)) == 0 {
            builder.add_edge(i, a + rng.gen_range(0..b));
        }
    }
    for j in 0..b {
        if g.degree(crate::VertexId::new(a + j)) == 0 {
            builder.add_edge(rng.gen_range(0..a), a + j);
        }
    }
    builder.build()
}

/// A random maximal-matching-friendly `d`-regular-ish graph via the
/// configuration model with rejection of loops/multi-edges. The result has
/// every degree equal to `d` when pairing succeeds; after
/// `max_attempts` failed pairings the last partial (simple) result is
/// returned, which may have a few vertices of degree `< d`.
///
/// # Panics
///
/// Panics if `n * d` is odd or `d >= n`.
#[must_use]
pub fn random_regular<R: Rng + ?Sized>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(n * d % 2 == 0, "n·d must be even (got n = {n}, d = {d})");
    assert!(d < n, "degree {d} must be below vertex count {n}");
    let max_attempts = 200;
    let mut best = GraphBuilder::new(n).build();
    for _ in 0..max_attempts {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat(v).take(d)).collect();
        rng.shuffle(&mut stubs);
        let mut b = GraphBuilder::new(n);
        let mut ok = true;
        for pair in stubs.chunks_exact(2) {
            let (x, y) = (pair[0], pair[1]);
            if x == y || b.has_edge(x, y) {
                ok = false;
                break;
            }
            b.add_edge(x, y);
        }
        let g = b.build();
        if ok {
            return g;
        }
        if g.edge_count() > best.edge_count() {
            best = g;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use defender_num::rng::StdRng;

    #[test]
    fn path_shape() {
        let g = path(5);
        assert_eq!((g.vertex_count(), g.edge_count()), (5, 4));
        assert_eq!(properties::degree_sequence(&g), vec![1, 1, 2, 2, 2]);
    }

    #[test]
    fn cycle_shape() {
        let g = cycle(6);
        assert_eq!((g.vertex_count(), g.edge_count()), (6, 6));
        assert_eq!(properties::regularity(&g), Some(2));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_cycle_rejected() {
        let _ = cycle(2);
    }

    #[test]
    fn star_shape() {
        let g = star(4);
        assert_eq!((g.vertex_count(), g.edge_count()), (5, 4));
        assert_eq!(g.degree(crate::VertexId::new(0)), 4);
    }

    #[test]
    fn wheel_shape() {
        let g = wheel(5);
        assert_eq!((g.vertex_count(), g.edge_count()), (6, 10));
        assert_eq!(g.degree(crate::VertexId::new(0)), 5);
        assert!(!properties::is_bipartite(&g));
    }

    #[test]
    fn complete_shape() {
        let g = complete(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(properties::regularity(&g), Some(4));
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4);
        assert_eq!((g.vertex_count(), g.edge_count()), (7, 12));
        assert!(properties::is_bipartite(&g));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4);
        assert_eq!(g.vertex_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // 17
        assert!(properties::is_bipartite(&g));
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(3);
        assert_eq!((g.vertex_count(), g.edge_count()), (8, 12));
        assert_eq!(properties::regularity(&g), Some(3));
        assert!(properties::is_bipartite(&g));
    }

    #[test]
    fn petersen_shape() {
        let g = petersen();
        assert_eq!((g.vertex_count(), g.edge_count()), (10, 15));
        assert_eq!(properties::regularity(&g), Some(3));
        assert!(!properties::is_bipartite(&g));
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn ladder_shape() {
        let g = ladder(4);
        assert_eq!((g.vertex_count(), g.edge_count()), (8, 10));
        assert!(properties::is_bipartite(&g));
    }

    #[test]
    fn circulant_shape() {
        let g = circulant(8, &[1, 2]);
        assert_eq!(properties::regularity(&g), Some(4));
        assert!(properties::is_connected(&g));
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 3, 10, 50] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.vertex_count(), n);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(
                properties::is_connected(&g),
                "trees are connected (n = {n})"
            );
            assert!(
                properties::is_bipartite(&g),
                "trees are bipartite (n = {n})"
            );
        }
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(gnp(6, 0.0, &mut rng).edge_count(), 0);
        assert_eq!(gnp(6, 1.0, &mut rng).edge_count(), 15);
    }

    #[test]
    fn gnp_connected_is_connected() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..5 {
            let g = gnp_connected(30, 0.02, &mut rng);
            assert!(properties::is_connected(&g));
            assert!(!g.has_isolated_vertex());
        }
    }

    #[test]
    fn random_bipartite_game_ready() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let g = random_bipartite(6, 9, 0.1, &mut rng);
            assert!(properties::is_bipartite(&g));
            assert!(!g.has_isolated_vertex());
        }
    }

    #[test]
    fn random_regular_degrees() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = random_regular(12, 3, &mut rng);
        // Pairing nearly always succeeds at this size; accept the fallback
        // but check it stayed simple and close to regular.
        assert!(g.max_degree() <= 3);
        assert!(g.edge_count() <= 18);
    }

    #[test]
    fn generators_are_deterministic_given_seed() {
        let g1 = gnp(20, 0.3, &mut StdRng::seed_from_u64(9));
        let g2 = gnp(20, 0.3, &mut StdRng::seed_from_u64(9));
        assert_eq!(g1, g2);
    }
}
