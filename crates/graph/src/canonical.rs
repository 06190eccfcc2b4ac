//! Canonical forms: an isomorphism-invariant labeling, key, and hash.
//!
//! `Π_k(G)` depends on `G` only up to isomorphism, so a solver that
//! memoizes equilibria (see `defender-cache`) needs a *canonical form*:
//! a relabeling of the vertices that every graph isomorphic to `G` maps
//! to identically. Two graphs then share a cache entry exactly when
//! their canonical edge lists (equivalently, their canonical graph6
//! strings) are equal.
//!
//! The algorithm is classic individualization–refinement, exact at every
//! size (the search is complete — no hash-based shortcuts):
//!
//! 1. **Iterative color refinement** (1-dimensional Weisfeiler–Leman):
//!    vertices are repeatedly re-colored by the multiset of their
//!    neighbors' colors until the partition stabilizes. Color ids are
//!    assigned in sorted-signature order, so the refined partition is a
//!    pure function of the isomorphism class.
//! 2. **Individualization fallback**: when refinement stalls on a
//!    non-discrete partition (regular and vertex-transitive graphs), the
//!    search branches on every vertex of the first non-singleton color
//!    class, individualizes it, re-refines, and recurses; the canonical
//!    labeling is the discrete leaf whose relabeled edge list is
//!    lexicographically smallest; among equal leaves, the first one the
//!    search reaches. A twin prune (vertices of one class with identical
//!    neighborhoods are swappable by an automorphism, so only one is
//!    branched) keeps complete and complete-bipartite graphs linear
//!    instead of factorial.
//! 3. **Automorphism pruning**: a leaf whose edge list equals the best
//!    leaf's proves `γ = best⁻¹ ∘ leaf` an automorphism of `G`, and the
//!    search records it. At each node it skips a vertex of the target
//!    class that shares an orbit with a smaller vertex of that class,
//!    under the recorded automorphisms that fix the node's individualized
//!    prefix pointwise, and a new automorphism abandons the subtree in
//!    progress below a node once it puts that subtree's vertex in such an
//!    orbit. Both conditions are checked explicitly. Here an individualized
//!    vertex takes a fresh top color instead of splitting its class in
//!    place, so two equal leaves do not by themselves prove that `γ` maps
//!    one root-to-leaf path onto the other position by position.
//!
//! The pruning never changes the output. An automorphism that fixes a
//! node's prefix pointwise preserves the node's coloring, because
//! refinement is isomorphism-invariant; so it maps the subtree below one
//! vertex of the target class onto the subtree below its image, leaf for
//! leaf, with equal edge lists. Every skipped subtree is therefore an
//! image of an earlier sibling's, and the first leaf with the smallest
//! edge list (whose relabeling, key and hash are the output) is never
//! skipped. The search keeps the sorted-signature color ids and the
//! branch order (class vertices in increasing order), so it is the same
//! leaf the unpruned search returns; `tests/canonical_golden.rs` pins
//! keys and relabelings written by the unpruned search. Without the
//! prune, the search visits one leaf per automorphism on
//! vertex-transitive graphs (120 on Petersen, 3,840 on Q5, 28,800 on the
//! 5×5 rook's graph); with it, 4 to 9 on those and on the 64-vertex Q6
//! and 8×8 rook's graph.
//!
//! Everything is `Vec`/sort based — no `HashMap`, no iteration-order
//! dependence — so the determinism lint holds and the canonical form is
//! bit-stable across platforms. One call allocates its buffers once:
//! refinement works in flat rows of one coloring per search depth, and
//! a leaf is compared without cloning a coloring. The differential tests
//! pin the search against brute-force minimization over all `n!`
//! permutations on an ≤8-vertex corpus, and against random relabelings
//! of every generator family.

use crate::builder::GraphBuilder;
use crate::graph::Graph;

/// The canonical labeling of a graph: a vertex permutation, the edge
/// list it induces, and an isomorphism-invariant hash.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanonicalForm {
    vertex_count: usize,
    /// `relabel[v]` is the canonical label of original vertex `v`.
    relabel: Vec<usize>,
    /// Canonically relabeled edges, each `(lo, hi)`, sorted.
    edges: Vec<(usize, usize)>,
    hash: u64,
}

impl CanonicalForm {
    /// Number of vertices (shared by the original and canonical graphs).
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.vertex_count
    }

    /// The canonical label of each original vertex: `relabel()[v]` is
    /// where vertex `v` lands in the canonical graph.
    #[must_use]
    pub fn relabel(&self) -> &[usize] {
        &self.relabel
    }

    /// The inverse permutation: `inverse()[c]` is the original vertex
    /// carrying canonical label `c`. This is the map a cache hit uses to
    /// pull a memoized equilibrium back onto the query labeling.
    #[must_use]
    pub fn inverse(&self) -> Vec<usize> {
        let mut inv = vec![0; self.relabel.len()];
        for (v, &c) in self.relabel.iter().enumerate() {
            inv[c] = v;
        }
        inv
    }

    /// The canonical edge list: relabeled endpoints, each `(lo, hi)`,
    /// sorted lexicographically. Equal across a whole isomorphism class.
    #[must_use]
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// Materializes the canonical graph. Isomorphic inputs build
    /// byte-identical graphs (same adjacency, same edge ids).
    #[must_use]
    pub fn to_graph(&self) -> Graph {
        let mut b = GraphBuilder::new(self.vertex_count);
        for &(u, v) in &self.edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The canonical key: the graph6 encoding of the canonical graph.
    /// The codec is strict and bijective, so key equality is exactly
    /// isomorphism of the underlying graphs. Encodes straight from the
    /// canonical edge list — no [`Graph`] is built, so computing a key
    /// never ticks the `graph.build.*` counters.
    #[must_use]
    pub fn key(&self) -> String {
        crate::graph6::encode_edge_list(self.vertex_count, &self.edges)
    }

    /// FNV-1a hash over the canonical form — equal for isomorphic
    /// graphs, and cheap to compare before the full key.
    #[must_use]
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// Computes the canonical form of `g` by individualization–refinement.
///
/// Exact at every size; worst-case exponential in pathological strongly
/// regular graphs, but linear-ish on the workspace's generator families
/// (the twin prune collapses complete/star/bipartite blowups, refinement
/// after one individualization splits paths, cycles, grids, hypercubes,
/// and Petersen almost to discreteness, and the automorphism prune keeps
/// vertex-transitive graphs to a handful of leaves).
#[must_use]
pub fn canonical_form(g: &Graph) -> CanonicalForm {
    search(g).0
}

/// The canonical form of `g` and the number of discrete leaves its
/// search visited.
fn search(g: &Graph) -> (CanonicalForm, usize) {
    let n = g.vertex_count();
    let mut search = Search::new(g);
    if n > 0 {
        search.node(0);
    }
    let Search {
        best_edges: edges,
        best_relabel: relabel,
        leaves,
        ..
    } = search;
    let hash = fnv1a(n, &edges);
    let form = CanonicalForm {
        vertex_count: n,
        relabel,
        edges,
        hash,
    };
    (form, leaves)
}

/// Brute-force canonicalization: the lexicographically smallest relabeled
/// edge list over *all* `n!` vertex permutations. Exponential — the
/// differential oracle the search is pinned against in tests.
///
/// # Panics
///
/// Panics when `g` has more than 8 vertices (40320 permutations is the
/// intended ceiling for an oracle).
#[must_use]
pub fn brute_force_canonical_edges(g: &Graph) -> Vec<(usize, usize)> {
    let n = g.vertex_count();
    assert!(
        n <= 8,
        "brute-force canonicalization is capped at 8 vertices"
    );
    let raw: Vec<(usize, usize)> = g
        .edges()
        .map(|e| {
            let ep = g.endpoints(e);
            (ep.u().index(), ep.v().index())
        })
        .collect();
    let mut perm: Vec<usize> = (0..n).collect();
    let mut best: Option<Vec<(usize, usize)>> = None;
    permute(&mut perm, 0, &mut |p| {
        let edges = relabeled_edges(&raw, p);
        if best.as_ref().map_or(true, |b| edges < *b) {
            best = Some(edges);
        }
    });
    best.unwrap_or_default()
}

/// Applies `relabel` to `raw` edges and returns them normalized
/// (`(lo, hi)` each, sorted) for lexicographic comparison.
fn relabeled_edges(raw: &[(usize, usize)], relabel: &[usize]) -> Vec<(usize, usize)> {
    let mut edges: Vec<(usize, usize)> = raw
        .iter()
        .map(|&(u, v)| {
            let (a, b) = (relabel[u], relabel[v]);
            (a.min(b), a.max(b))
        })
        .collect();
    edges.sort_unstable();
    edges
}

/// The state of one individualization–refinement search. Every buffer
/// is allocated once and reused by all nodes; per-depth data lives in
/// rows of `n` entries (row `d` belongs to the open node at depth `d`).
struct Search {
    n: usize,
    /// Sorted neighbor lists: `nbrs[offsets[v]..offsets[v + 1]]`.
    offsets: Vec<usize>,
    nbrs: Vec<usize>,
    /// Row `d` is the coloring of the node at depth `d`: dense ids,
    /// individualized on entry and refined in place.
    colors: Vec<usize>,
    /// `path[d]` is the vertex individualized below the node at depth `d`.
    path: Vec<usize>,
    /// The vertices each open node has branched on, stacked by depth
    /// (the twin prune compares against them).
    branched: Vec<usize>,
    /// Row `d` is a union-find forest over the vertices whose roots are
    /// orbit minima under the recorded automorphisms that fix
    /// `path[..d]` pointwise.
    orbits: Vec<usize>,
    /// Recorded automorphisms, `n` images each.
    automorphisms: Vec<usize>,
    /// Refinement scratch: vertices ordered by signature, each vertex's
    /// sorted neighbor colors (laid out like `nbrs`), cell starts, and
    /// the next coloring.
    order: Vec<usize>,
    signature: Vec<usize>,
    cell_start: Vec<usize>,
    next: Vec<usize>,
    /// Leaf scratch: `leaf_inverse[c]` is the vertex labeled `c`, and
    /// `leaf_edges` the relabeled edge list.
    leaf_inverse: Vec<usize>,
    leaf_edges: Vec<(usize, usize)>,
    /// The first minimal leaf so far (empty until the first leaf).
    best_edges: Vec<(usize, usize)>,
    best_relabel: Vec<usize>,
    best_inverse: Vec<usize>,
    /// Discrete leaves visited.
    leaves: usize,
}

impl Search {
    fn new(g: &Graph) -> Search {
        let n = g.vertex_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut nbrs = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for v in g.vertices() {
            // Incidence lists are sorted by neighbor id.
            nbrs.extend(g.incidence(v).iter().map(|&(w, _)| w.index()));
            offsets.push(nbrs.len());
        }
        Search {
            n,
            signature: vec![0; nbrs.len()],
            offsets,
            nbrs,
            colors: vec![0; n],
            path: Vec::new(),
            branched: Vec::new(),
            orbits: Vec::new(),
            automorphisms: Vec::new(),
            order: vec![0; n],
            cell_start: Vec::with_capacity(n + 1),
            next: vec![0; n],
            leaf_inverse: vec![0; n],
            leaf_edges: Vec::with_capacity(g.edge_count()),
            best_edges: Vec::new(),
            best_relabel: Vec::new(),
            best_inverse: Vec::new(),
            leaves: 0,
        }
    }

    fn neighbors(&self, v: usize) -> &[usize] {
        &self.nbrs[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Searches the node at `depth`, whose coloring row is individualized
    /// but not yet refined. Returns `Some(d)` when a leaf proved that the
    /// subtree below the node at depth `d` repeats an earlier sibling's,
    /// so every node deeper than `d` stops and the node at `d` moves on.
    fn node(&mut self, depth: usize) -> Option<usize> {
        let n = self.n;
        let color_count = self.refine(depth);
        if color_count == n {
            return self.leaf(depth);
        }
        let row = depth * n..(depth + 1) * n;
        // First non-singleton class (smallest color id — isomorphism-invariant).
        let target = (0..color_count)
            .find(|&c| self.cell_start[c + 1] - self.cell_start[c] >= 2)
            .unwrap_or(0);
        self.open_orbits(depth);
        if self.colors.len() < row.end + n {
            self.colors.resize(row.end + n, 0);
        }
        let first_branched = self.branched.len();
        for v in 0..n {
            if self.colors[row.start + v] != target {
                continue;
            }
            // An earlier sibling in v's orbit already covered v's subtree:
            // an automorphism fixing the prefix maps one onto the other.
            if find(&mut self.orbits[row.clone()], v) != v {
                continue;
            }
            if self.branched[first_branched..]
                .iter()
                .any(|&u| self.twins(u, v))
            {
                continue;
            }
            self.branched.push(v);
            self.path.push(v);
            self.colors.copy_within(row.clone(), row.end);
            self.colors[row.end + v] = color_count; // individualize: fresh unique color
            let jump = self.node(depth + 1);
            self.path.pop();
            if let Some(d) = jump.filter(|&d| d < depth) {
                self.branched.truncate(first_branched);
                return Some(d);
            }
        }
        self.branched.truncate(first_branched);
        None
    }

    /// Refines coloring row `depth` in place to the coarsest stable
    /// partition respecting neighbor-color multisets, and returns its
    /// number of colors; `cell_start` is then that partition's cell
    /// boundaries. Color ids come out dense (`0..k`) in
    /// sorted-signature order — the signature of `v` is its color, then
    /// the sorted colors of its neighbors — which makes the procedure
    /// isomorphism-invariant. A round that splits no class leaves every
    /// id unchanged, because the row is dense and the old color leads
    /// the signature.
    fn refine(&mut self, depth: usize) -> usize {
        let n = self.n;
        let Search {
            offsets,
            nbrs,
            colors,
            order,
            signature,
            cell_start,
            next,
            ..
        } = self;
        let colors = &mut colors[depth * n..(depth + 1) * n];
        let mut color_count = colors.iter().max().map_or(0, |&c| c + 1);
        loop {
            // Counting sort by color (stable, so each cell lists its
            // vertices in increasing order).
            cell_start.clear();
            cell_start.resize(color_count + 1, 0);
            for &c in colors.iter() {
                cell_start[c + 1] += 1;
            }
            for c in 0..color_count {
                cell_start[c + 1] += cell_start[c];
            }
            let fill = &mut next[..color_count];
            fill.copy_from_slice(&cell_start[..color_count]);
            for (v, &c) in colors.iter().enumerate() {
                order[fill[c]] = v;
                fill[c] += 1;
            }
            // Only vertices of one cell ever compare neighbor colors.
            for c in 0..color_count {
                let cell = &mut order[cell_start[c]..cell_start[c + 1]];
                if cell.len() < 2 {
                    continue;
                }
                for &v in cell.iter() {
                    let (lo, hi) = (offsets[v], offsets[v + 1]);
                    for (slot, &w) in signature[lo..hi].iter_mut().zip(&nbrs[lo..hi]) {
                        *slot = colors[w];
                    }
                    signature[lo..hi].sort_unstable();
                }
                cell.sort_unstable_by(|&a, &b| {
                    signature[offsets[a]..offsets[a + 1]]
                        .cmp(&signature[offsets[b]..offsets[b + 1]])
                });
            }
            let mut id = 0;
            for i in 0..n {
                let v = order[i];
                if i > 0 {
                    let u = order[i - 1];
                    if colors[u] != colors[v]
                        || signature[offsets[u]..offsets[u + 1]]
                            != signature[offsets[v]..offsets[v + 1]]
                    {
                        id += 1;
                    }
                }
                next[v] = id;
            }
            if id + 1 == color_count {
                return color_count;
            }
            colors.copy_from_slice(next);
            color_count = id + 1;
        }
    }

    /// Whether `u` and `v` (same refinement class) are twins: identical
    /// neighborhoods once each other is excluded. The transposition
    /// `(u v)` is then a color-preserving automorphism, so branching on
    /// both cannot improve the canonical leaf — the prune that keeps
    /// cliques and bicliques out of factorial territory.
    fn twins(&self, u: usize, v: usize) -> bool {
        let nu = self.neighbors(u).iter().copied().filter(|&w| w != v);
        let nv = self.neighbors(v).iter().copied().filter(|&w| w != u);
        nu.eq(nv)
    }

    /// Resets orbit row `depth` to the orbits of the recorded
    /// automorphisms that fix the node's prefix `path[..depth]` pointwise.
    fn open_orbits(&mut self, depth: usize) {
        let n = self.n;
        if self.orbits.len() < (depth + 1) * n {
            self.orbits.resize((depth + 1) * n, 0);
        }
        let Search {
            orbits,
            automorphisms,
            path,
            ..
        } = self;
        let forest = &mut orbits[depth * n..(depth + 1) * n];
        for (v, parent) in forest.iter_mut().enumerate() {
            *parent = v;
        }
        for gamma in automorphisms.chunks_exact(n) {
            if path[..depth].iter().all(|&p| gamma[p] == p) {
                join_cycles(forest, gamma);
            }
        }
    }

    /// Visits the discrete leaf at `depth`: the coloring *is* the
    /// relabeling. The first leaf with the smallest edge list wins; a leaf
    /// whose edges equal the best's yields the automorphism
    /// `γ = best⁻¹ ∘ leaf`, which is recorded, merged into the orbits of
    /// every open node whose prefix it fixes, and may end the subtrees it
    /// proves to repeat an earlier sibling's (see [`Search::node`]).
    fn leaf(&mut self, depth: usize) -> Option<usize> {
        let n = self.n;
        self.leaves += 1;
        let relabel = &self.colors[depth * n..(depth + 1) * n];
        for (v, &c) in relabel.iter().enumerate() {
            self.leaf_inverse[c] = v;
        }
        // Canonical labels in increasing order, each with its larger
        // neighbors' labels sorted: the relabeled edge list, in order.
        self.leaf_edges.clear();
        for (a, &v) in self.leaf_inverse.iter().enumerate() {
            let first = self.leaf_edges.len();
            self.leaf_edges.extend(
                self.nbrs[self.offsets[v]..self.offsets[v + 1]]
                    .iter()
                    .map(|&w| relabel[w])
                    .filter(|&b| b > a)
                    .map(|b| (a, b)),
            );
            self.leaf_edges[first..].sort_unstable();
        }
        if self.best_relabel.is_empty() || self.leaf_edges < self.best_edges {
            std::mem::swap(&mut self.best_edges, &mut self.leaf_edges);
            self.best_relabel.clear();
            self.best_relabel.extend_from_slice(relabel);
            std::mem::swap(&mut self.best_inverse, &mut self.leaf_inverse);
            self.leaf_inverse.resize(n, 0);
            return None;
        }
        if self.leaf_edges != self.best_edges {
            return None;
        }
        let first = self.automorphisms.len();
        for &c in relabel {
            self.automorphisms.push(self.best_inverse[c]);
        }
        let gamma = &self.automorphisms[first..];
        if gamma.iter().enumerate().all(|(v, &w)| v == w) {
            self.automorphisms.truncate(first);
            return None;
        }
        // Node `d` is open below `path[..d]`, with child `path[d]` in
        // progress. γ preserves its coloring only if it fixes the prefix.
        let mut fixed = 0;
        while fixed < depth {
            join_cycles(&mut self.orbits[fixed * n..(fixed + 1) * n], gamma);
            let p = self.path[fixed];
            if gamma[p] != p {
                break;
            }
            fixed += 1;
        }
        // Some d ≤ fixed whose child now shares an orbit with a smaller
        // vertex: that vertex is an earlier sibling in the same cell, and
        // the child's whole subtree is an automorphic image of its.
        (0..depth.min(fixed + 1)).find(|&d| {
            let p = self.path[d];
            find(&mut self.orbits[d * n..(d + 1) * n], p) != p
        })
    }
}

/// The root of `v` in a union-find forest whose roots are set minima
/// (path halving).
fn find(forest: &mut [usize], mut v: usize) -> usize {
    while forest[v] != v {
        forest[v] = forest[forest[v]];
        v = forest[v];
    }
    v
}

/// Merges every cycle of the permutation `gamma` into `forest`, keeping
/// each set's minimum at its root.
fn join_cycles(forest: &mut [usize], gamma: &[usize]) {
    for (v, &w) in gamma.iter().enumerate() {
        let (a, b) = (find(forest, v), find(forest, w));
        if a < b {
            forest[b] = a;
        } else if b < a {
            forest[a] = b;
        }
    }
}

/// Heap's algorithm over `perm[at..]`, invoking `visit` on every full
/// permutation.
fn permute(perm: &mut Vec<usize>, at: usize, visit: &mut impl FnMut(&[usize])) {
    if at == perm.len() {
        visit(perm);
        return;
    }
    for i in at..perm.len() {
        perm.swap(at, i);
        permute(perm, at + 1, visit);
        perm.swap(at, i);
    }
}

/// FNV-1a over the vertex count and canonical edge endpoints.
fn fnv1a(n: usize, edges: &[(usize, usize)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |value: u64| {
        for byte in value.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    mix(n as u64);
    for &(u, v) in edges {
        mix(u as u64);
        mix(v as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use defender_num::rng::{Rng, StdRng};

    /// Relabels `g` by a uniformly random permutation drawn from `rng`.
    fn shuffled(g: &Graph, rng: &mut StdRng) -> Graph {
        let n = g.vertex_count();
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        let mut edges: Vec<(usize, usize)> = g
            .edges()
            .map(|e| {
                let ep = g.endpoints(e);
                (perm[ep.u().index()], perm[ep.v().index()])
            })
            .collect();
        // Shuffle edge insertion order too: canonical form must not
        // depend on edge ids.
        rng.shuffle(&mut edges);
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// The canonical relabeling really is a permutation mapping `g`'s
    /// edges onto the canonical edge list.
    fn assert_valid_labeling(g: &Graph, form: &CanonicalForm) {
        let n = g.vertex_count();
        let mut seen = vec![false; n];
        for &c in form.relabel() {
            assert!(c < n && !seen[c], "relabel is a permutation");
            seen[c] = true;
        }
        let raw: Vec<(usize, usize)> = g
            .edges()
            .map(|e| {
                let ep = g.endpoints(e);
                (ep.u().index(), ep.v().index())
            })
            .collect();
        assert_eq!(
            relabeled_edges(&raw, form.relabel()),
            form.edges(),
            "relabel carries the original edges onto the canonical list"
        );
    }

    #[test]
    fn matches_brute_force_on_small_corpus() {
        // Every graph the oracle can afford: named families ≤ 8 vertices
        // plus random gnp graphs. The search's canonical form and the
        // n!-permutation oracle are different representatives of the same
        // isomorphism class, so the differential pin is class structure:
        // over the corpus **and** random relabelings of it, the two must
        // induce exactly the same partition into isomorphism classes —
        // equal search keys ⟺ equal brute-force minima.
        let mut corpus: Vec<Graph> = vec![
            generators::path(2),
            generators::path(5),
            generators::path(8),
            generators::cycle(3),
            generators::cycle(6),
            generators::cycle(8),
            generators::star(7),
            generators::wheel(6),
            generators::complete(4),
            generators::complete(7),
            generators::complete_bipartite(2, 4),
            generators::complete_bipartite(3, 3),
            generators::grid(2, 4),
            generators::hypercube(3),
            generators::ladder(4),
        ];
        let mut rng = StdRng::seed_from_u64(0xCA_0BEF);
        for n in 4..=8 {
            for _ in 0..6 {
                corpus.push(generators::gnp(n, 0.5, &mut rng));
            }
        }
        // Random relabelings join the corpus so the pin also covers
        // isomorphic-but-differently-labeled pairs.
        for i in 0..corpus.len() {
            let h = shuffled(&corpus[i], &mut rng);
            corpus.push(h);
        }
        type EdgeList = Vec<(usize, usize)>;
        let forms: Vec<(EdgeList, EdgeList)> = corpus
            .iter()
            .map(|g| {
                let form = canonical_form(g);
                assert_valid_labeling(g, &form);
                (form.edges().to_vec(), brute_force_canonical_edges(g))
            })
            .collect();
        for (i, (search_i, brute_i)) in forms.iter().enumerate() {
            for (j, (search_j, brute_j)) in forms.iter().enumerate().skip(i + 1) {
                let same_n = corpus[i].vertex_count() == corpus[j].vertex_count();
                assert_eq!(
                    same_n && search_i == search_j,
                    same_n && brute_i == brute_j,
                    "graphs {i} and {j}: search and oracle must agree on isomorphism"
                );
            }
        }
    }

    #[test]
    fn invariant_under_random_relabelings_of_every_family() {
        let mut rng = StdRng::seed_from_u64(0xD1FF);
        let families: Vec<(&str, Graph)> = vec![
            ("path", generators::path(9)),
            ("cycle", generators::cycle(11)),
            ("star", generators::star(9)),
            ("wheel", generators::wheel(8)),
            ("complete", generators::complete(9)),
            ("complete_bipartite", generators::complete_bipartite(3, 5)),
            ("grid", generators::grid(3, 4)),
            ("hypercube", generators::hypercube(4)),
            ("petersen", generators::petersen()),
            ("ladder", generators::ladder(5)),
            ("circulant", generators::circulant(10, &[1, 3])),
            ("random_tree", generators::random_tree(10, &mut rng)),
            ("gnp_connected", generators::gnp_connected(9, 0.4, &mut rng)),
            (
                "random_bipartite",
                generators::random_bipartite(4, 5, 0.6, &mut rng),
            ),
            (
                "random_regular",
                generators::random_regular(10, 3, &mut rng),
            ),
        ];
        for (name, g) in &families {
            let reference = canonical_form(g);
            assert_valid_labeling(g, &reference);
            for _ in 0..5 {
                let h = shuffled(g, &mut rng);
                let form = canonical_form(&h);
                assert_valid_labeling(&h, &form);
                assert_eq!(
                    form.edges(),
                    reference.edges(),
                    "{name}: canonical edges must survive relabeling"
                );
                assert_eq!(form.key(), reference.key(), "{name}: canonical key");
                assert_eq!(form.hash(), reference.hash(), "{name}: canonical hash");
            }
        }
    }

    #[test]
    fn distinguishes_non_isomorphic_graphs() {
        // Same degree sequence, different graphs: C6 vs two triangles is
        // not constructible here (disconnected), so use C6 vs the prism
        // complement trick: C6 and K_{3,3} minus a perfect matching are
        // both 2-regular on 6 vertices — the latter IS C6, so instead
        // compare graphs where refinement alone cannot tell: C6 vs
        // 2×C3 needs disconnection; use C5 vs P5 and K4 vs K4 minus an
        // edge as basic sanity, plus the classic refinement-hard pair
        // C6 vs C3+C3 via a builder.
        let c5 = canonical_form(&generators::cycle(5));
        let p5 = canonical_form(&generators::path(5));
        assert_ne!(c5.edges(), p5.edges());
        assert_ne!(c5.key(), p5.key());

        let k4 = canonical_form(&generators::complete(4));
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1)
            .add_edge(0, 2)
            .add_edge(0, 3)
            .add_edge(1, 2)
            .add_edge(1, 3);
        let k4_minus = canonical_form(&b.build());
        assert_ne!(k4.edges(), k4_minus.edges());

        // Disconnected 2-regular on 6 vertices vs C6: identical degree
        // sequences, distinguishable only by structure.
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
        b.add_edge(3, 4).add_edge(4, 5).add_edge(5, 3);
        let two_triangles = canonical_form(&b.build());
        let c6 = canonical_form(&generators::cycle(6));
        assert_ne!(two_triangles.edges(), c6.edges());
        assert_ne!(two_triangles.hash(), c6.hash());
    }

    /// The rook's graph `K_r □ K_r`: cells of an `r × r` board, adjacent
    /// when they share a row or a column.
    fn rook(r: usize) -> Graph {
        let mut b = GraphBuilder::new(r * r);
        for a in 0..r * r {
            for c in a + 1..r * r {
                if a / r == c / r || a % r == c % r {
                    b.add_edge(a, c);
                }
            }
        }
        b.build()
    }

    /// Pins the automorphism prune by the leaves the search visits, not
    /// by time. Without it the search visits one leaf per automorphism:
    /// Petersen 120, Q3 48, Q4 384, Q5 3,840, Q6 46,080, the 4×4 rook's
    /// graph 1,152, the 5×5 one 28,800 and the 8×8 one 3,251,404,800.
    /// Q6 and the 8×8 rook's graph have the 64 vertices a server admits.
    #[test]
    fn automorphisms_prune_vertex_transitive_searches_to_a_few_leaves() {
        let mut rng = StdRng::seed_from_u64(0x1EAF);
        for (name, g, expected) in [
            ("Petersen", generators::petersen(), 4),
            ("Q3", generators::hypercube(3), 4),
            ("Q4", generators::hypercube(4), 5),
            ("Q5", generators::hypercube(5), 6),
            ("Q6", generators::hypercube(6), 7),
            ("4x4 rook's graph", rook(4), 5),
            ("5x5 rook's graph", rook(5), 6),
            ("8x8 rook's graph", rook(8), 9),
        ] {
            let (form, leaves) = search(&g);
            assert_eq!(leaves, expected, "{name}: leaves visited");
            let h = shuffled(&g, &mut rng);
            let (relabeled, relabeled_leaves) = search(&h);
            assert!(relabeled_leaves <= 10, "{name}: {relabeled_leaves} leaves");
            assert_valid_labeling(&h, &relabeled);
            assert_eq!(relabeled.key(), form.key(), "{name}: canonical key");
        }
    }

    #[test]
    fn inverse_round_trips_the_relabeling() {
        let g = generators::petersen();
        let form = canonical_form(&g);
        let inv = form.inverse();
        for v in 0..g.vertex_count() {
            assert_eq!(inv[form.relabel()[v]], v);
        }
    }

    #[test]
    fn key_is_the_graph6_of_the_canonical_graph() {
        let g = generators::complete(4);
        let form = canonical_form(&g);
        // K4 is unique up to isomorphism; its graph6 form is "C~".
        assert_eq!(form.key(), "C~");
        let round = crate::graph6::from_graph6(&form.key()).unwrap();
        assert_eq!(round.vertex_count(), 4);
        assert_eq!(round.edge_count(), 6);
    }

    #[test]
    fn empty_and_single_vertex_graphs_are_total() {
        let empty = canonical_form(&GraphBuilder::new(0).build());
        assert_eq!(empty.vertex_count(), 0);
        assert!(empty.edges().is_empty());
        let one = canonical_form(&GraphBuilder::new(1).build());
        assert_eq!(one.relabel(), &[0]);
    }
}
