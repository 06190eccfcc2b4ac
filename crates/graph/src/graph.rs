//! The core immutable [`Graph`] type and its id newtypes.

use core::fmt;
use std::sync::OnceLock;

use crate::bitset::AdjacencyBits;

/// Identifier of a vertex in a [`Graph`].
///
/// Vertices of a graph with `n` vertices are always `0..n`, so a
/// `VertexId` doubles as an index into per-vertex arrays.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(u32);

impl VertexId {
    /// Creates a vertex id from a raw index.
    #[must_use]
    pub fn new(index: usize) -> VertexId {
        #[expect(
            clippy::expect_used,
            reason = "graphs are capped far below u32::MAX vertices"
        )]
        VertexId(u32::try_from(index).expect("vertex index fits in u32"))
    }

    /// The raw index of this vertex.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<VertexId> for usize {
    fn from(v: VertexId) -> usize {
        v.index()
    }
}

/// Identifier of an edge in a [`Graph`].
///
/// Edges of a graph with `m` edges are always `0..m`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    #[must_use]
    pub fn new(index: usize) -> EdgeId {
        #[expect(
            clippy::expect_used,
            reason = "graphs are capped far below u32::MAX edges"
        )]
        EdgeId(u32::try_from(index).expect("edge index fits in u32"))
    }

    /// The raw index of this edge.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<EdgeId> for usize {
    fn from(e: EdgeId) -> usize {
        e.index()
    }
}

/// The two endpoints of an undirected edge, stored with `u <= v`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Endpoints {
    u: VertexId,
    v: VertexId,
}

impl Endpoints {
    pub(crate) fn new(a: VertexId, b: VertexId) -> Endpoints {
        if a <= b {
            Endpoints { u: a, v: b }
        } else {
            Endpoints { u: b, v: a }
        }
    }

    /// The smaller endpoint.
    #[must_use]
    pub fn u(self) -> VertexId {
        self.u
    }

    /// The larger endpoint.
    #[must_use]
    pub fn v(self) -> VertexId {
        self.v
    }

    /// Both endpoints as an array `[u, v]` with `u <= v`.
    #[must_use]
    pub fn both(self) -> [VertexId; 2] {
        [self.u, self.v]
    }

    /// Whether `w` is one of the two endpoints.
    #[must_use]
    pub fn contains(self, w: VertexId) -> bool {
        self.u == w || self.v == w
    }

    /// The endpoint different from `w`, or `None` if `w` is not an
    /// endpoint of this edge.
    #[must_use]
    pub fn try_other(self, w: VertexId) -> Option<VertexId> {
        if self.u == w {
            Some(self.v)
        } else if self.v == w {
            Some(self.u)
        } else {
            None
        }
    }

    /// The endpoint different from `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not an endpoint of this edge; callers that cannot
    /// prove membership should use [`Endpoints::try_other`].
    #[must_use]
    pub fn other(self, w: VertexId) -> VertexId {
        match self.try_other(w) {
            Some(v) => v,
            #[expect(
                clippy::panic,
                reason = "documented contract; try_other is the fallible form"
            )]
            None => panic!("{w} is not an endpoint of edge ({}, {})", self.u, self.v),
        }
    }
}

impl fmt::Debug for Endpoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

impl fmt::Display for Endpoints {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.u, self.v)
    }
}

/// An immutable, simple, undirected graph.
///
/// Construction goes through [`GraphBuilder`](crate::GraphBuilder), which
/// rejects self-loops and deduplicates parallel edges. Adjacency is stored
/// in CSR (compressed sparse row) form: for each vertex a contiguous slice
/// of (neighbor, edge-id) pairs. All queries after construction are
/// allocation-free.
///
/// The paper assumes graphs with no isolated vertices; the game layer
/// enforces that via [`Graph::has_isolated_vertex`] rather than this type,
/// so the substrate stays usable for intermediate constructions.
///
/// # Examples
///
/// ```
/// use defender_graph::{Graph, GraphBuilder, VertexId};
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1);
/// b.add_edge(1, 2);
/// let g: Graph = b.build();
///
/// let v1 = VertexId::new(1);
/// assert_eq!(g.degree(v1), 2);
/// let neighbors: Vec<_> = g.neighbors(v1).collect();
/// assert_eq!(neighbors, vec![VertexId::new(0), VertexId::new(2)]);
/// ```
#[derive(Clone)]
pub struct Graph {
    /// CSR row offsets: vertex `v`'s incidence list is
    /// `adjacency[offsets[v] .. offsets[v + 1]]`.
    offsets: Vec<u32>,
    /// Flattened (neighbor, incident edge) pairs, sorted per vertex.
    adjacency: Vec<(VertexId, EdgeId)>,
    /// Endpoints of each edge, indexed by `EdgeId`.
    edges: Vec<Endpoints>,
    /// Lazily built packed adjacency bitmap (see [`Graph::adjacency_bits`]).
    /// `None` inside the lock means the graph exceeds
    /// [`Graph::BITSET_MAX_VERTICES`] and the bitmap is never materialized.
    bits: OnceLock<Option<AdjacencyBits>>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        // The bitmap is a cache derived from the CSR data; whether it has
        // been built must not affect structural equality.
        self.offsets == other.offsets
            && self.adjacency == other.adjacency
            && self.edges == other.edges
    }
}

impl Eq for Graph {}

impl Graph {
    pub(crate) fn from_parts(vertex_count: usize, edges: Vec<Endpoints>) -> Graph {
        let mut degree = vec![0u32; vertex_count];
        for e in &edges {
            degree[e.u().index()] += 1;
            degree[e.v().index()] += 1;
        }
        let mut offsets = Vec::with_capacity(vertex_count + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor: Vec<u32> = offsets[..vertex_count].to_vec();
        let mut adjacency = vec![(VertexId::new(0), EdgeId::new(0)); acc as usize];
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId::new(i);
            adjacency[cursor[e.u().index()] as usize] = (e.v(), id);
            cursor[e.u().index()] += 1;
            adjacency[cursor[e.v().index()] as usize] = (e.u(), id);
            cursor[e.v().index()] += 1;
        }
        // Sort each incidence slice by neighbor id for deterministic iteration.
        for v in 0..vertex_count {
            let range = offsets[v] as usize..offsets[v + 1] as usize;
            adjacency[range].sort_unstable();
        }
        Graph {
            offsets,
            adjacency,
            edges,
            bits: OnceLock::new(),
        }
    }

    /// Largest vertex count for which [`Graph::adjacency_bits`] will build
    /// the packed adjacency bitmap.
    ///
    /// At this bound the bitmap costs `n²/8 = 512 KiB`; beyond it the
    /// quadratic footprint would dwarf the CSR representation for the
    /// large sparse instances the experiments sweep (E5 runs cycles up to
    /// `n = 32 000`, where a bitmap would be 128 MB).
    pub const BITSET_MAX_VERTICES: usize = 2048;

    /// The packed adjacency bitmap, building it on first call.
    ///
    /// Returns `None` when the graph has more than
    /// [`Graph::BITSET_MAX_VERTICES`] vertices (or none at all); callers
    /// must then fall back to the CSR incidence lists. The bitmap is built
    /// at most once per graph and shared by all subsequent callers.
    #[must_use]
    pub fn adjacency_bits(&self) -> Option<&AdjacencyBits> {
        self.bits
            .get_or_init(|| {
                let n = self.vertex_count();
                (n > 0 && n <= Graph::BITSET_MAX_VERTICES).then(|| AdjacencyBits::build(self))
            })
            .as_ref()
    }

    /// The bitmap if some caller has already forced its construction.
    pub(crate) fn built_bits(&self) -> Option<&AdjacencyBits> {
        self.bits.get().and_then(Option::as_ref)
    }

    /// Number of vertices `n = |V|`.
    #[must_use]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges `m = |E|`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over all vertex ids `v0, v1, …`.
    pub fn vertices(&self) -> impl ExactSizeIterator<Item = VertexId> + Clone + '_ {
        (0..self.vertex_count()).map(VertexId::new)
    }

    /// Iterator over all edge ids `e0, e1, …`.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + Clone + '_ {
        (0..self.edge_count()).map(EdgeId::new)
    }

    /// The endpoints of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not an edge of this graph.
    #[must_use]
    pub fn endpoints(&self, e: EdgeId) -> Endpoints {
        self.edges[e.index()]
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    #[must_use]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Iterator over the neighbors of `v`, in increasing id order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    pub fn neighbors(&self, v: VertexId) -> impl ExactSizeIterator<Item = VertexId> + Clone + '_ {
        self.incidence(v).iter().map(|&(w, _)| w)
    }

    /// Iterator over the edges incident to `v`, as (neighbor, edge) pairs.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of this graph.
    #[must_use]
    pub fn incidence(&self, v: VertexId) -> &[(VertexId, EdgeId)] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.adjacency[lo..hi]
    }

    /// Iterator over the ids of edges incident to `v`.
    pub fn incident_edges(
        &self,
        v: VertexId,
    ) -> impl ExactSizeIterator<Item = EdgeId> + Clone + '_ {
        self.incidence(v).iter().map(|&(_, e)| e)
    }

    /// Whether vertices `a` and `b` are adjacent.
    ///
    /// O(1) single-word test when the adjacency bitmap has been built (see
    /// [`Graph::adjacency_bits`]); O(log deg) binary search otherwise.
    #[must_use]
    pub fn has_edge(&self, a: VertexId, b: VertexId) -> bool {
        if let Some(bits) = self.built_bits() {
            return bits.contains(a, b);
        }
        self.find_edge(a, b).is_some()
    }

    /// The id of the edge joining `a` and `b`, if present.
    #[must_use]
    pub fn find_edge(&self, a: VertexId, b: VertexId) -> Option<EdgeId> {
        // An already-built bitmap settles the (common) negative case with
        // one word test before the binary search.
        if let Some(bits) = self.built_bits() {
            if !bits.contains(a, b) {
                return None;
            }
        }
        let (probe, other) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        let slice = self.incidence(probe);
        slice
            .binary_search_by(|&(w, _)| w.cmp(&other))
            .ok()
            .map(|i| slice[i].1)
    }

    /// Whether any vertex has degree zero.
    ///
    /// The Tuple model is only defined on graphs where this is `false`.
    #[must_use]
    pub fn has_isolated_vertex(&self) -> bool {
        self.vertices().any(|v| self.degree(v) == 0)
    }

    /// The maximum degree `Δ(G)`, or 0 for the empty graph.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// The minimum degree `δ(G)`, or 0 for the empty graph.
    #[must_use]
    pub fn min_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).min().unwrap_or(0)
    }

    /// The set of distinct endpoints of the given edges — `V(T)` in the
    /// paper's notation — sorted and deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if any edge id is out of range.
    #[must_use]
    pub fn endpoint_set(&self, edges: &[EdgeId]) -> crate::VertexSet {
        let mut out: Vec<VertexId> = edges
            .iter()
            .flat_map(|&e| self.endpoints(e).both())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Neighborhood `Neigh_G(X)` of a vertex set: all vertices adjacent to
    /// at least one vertex of `X` (may intersect `X`), sorted.
    #[must_use]
    pub fn neighborhood(&self, xs: &[VertexId]) -> crate::VertexSet {
        let mut out: Vec<VertexId> = xs.iter().flat_map(|&x| self.neighbors(x)).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.vertex_count())
            .field("m", &self.edge_count())
            .field("edges", &self.edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(0, 2);
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.vertices().len(), 3);
        assert_eq!(g.edges().len(), 3);
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = triangle();
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
        let n0: Vec<_> = g.neighbors(VertexId::new(0)).collect();
        assert_eq!(n0, vec![VertexId::new(1), VertexId::new(2)]);
    }

    #[test]
    fn edge_lookup() {
        let g = triangle();
        assert!(g.has_edge(VertexId::new(0), VertexId::new(2)));
        assert!(g.has_edge(VertexId::new(2), VertexId::new(0)));
        let e = g.find_edge(VertexId::new(1), VertexId::new(2)).unwrap();
        assert_eq!(g.endpoints(e).both(), [VertexId::new(1), VertexId::new(2)]);
    }

    #[test]
    fn endpoints_other_and_contains() {
        let g = triangle();
        let e = g.find_edge(VertexId::new(0), VertexId::new(1)).unwrap();
        let ep = g.endpoints(e);
        assert!(ep.contains(VertexId::new(0)));
        assert!(!ep.contains(VertexId::new(2)));
        assert_eq!(ep.other(VertexId::new(0)), VertexId::new(1));
        assert_eq!(ep.other(VertexId::new(1)), VertexId::new(0));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn endpoints_other_panics_for_non_endpoint() {
        let g = triangle();
        let e = g.find_edge(VertexId::new(0), VertexId::new(1)).unwrap();
        let _ = g.endpoints(e).other(VertexId::new(2));
    }

    #[test]
    fn isolated_vertex_detection() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        let g = b.build();
        assert!(g.has_isolated_vertex());
        assert!(!triangle().has_isolated_vertex());
    }

    #[test]
    fn endpoint_set_dedups() {
        let g = triangle();
        let e01 = g.find_edge(VertexId::new(0), VertexId::new(1)).unwrap();
        let e12 = g.find_edge(VertexId::new(1), VertexId::new(2)).unwrap();
        let vs = g.endpoint_set(&[e01, e12]);
        assert_eq!(
            vs,
            vec![VertexId::new(0), VertexId::new(1), VertexId::new(2)]
        );
    }

    #[test]
    fn neighborhood_of_set() {
        let g = triangle();
        let nb = g.neighborhood(&[VertexId::new(0)]);
        assert_eq!(nb, vec![VertexId::new(1), VertexId::new(2)]);
        let nb_all = g.neighborhood(&[VertexId::new(0), VertexId::new(1)]);
        assert_eq!(nb_all.len(), 3, "triangle neighborhoods overlap X itself");
    }

    #[test]
    fn min_max_degree() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1);
        b.add_edge(0, 2);
        b.add_edge(0, 3);
        let g = b.build();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.min_degree(), 1);
    }

    #[test]
    fn adjacency_bits_gate_and_reuse() {
        let g = triangle();
        let bits = g.adjacency_bits().expect("small graph builds a bitmap");
        assert!(bits.contains(VertexId::new(0), VertexId::new(1)));
        // Second call returns the same cached bitmap.
        assert!(std::ptr::eq(bits, g.adjacency_bits().unwrap()));

        let empty = GraphBuilder::new(0).build();
        assert!(empty.adjacency_bits().is_none());

        let mut big = GraphBuilder::new(Graph::BITSET_MAX_VERTICES + 1);
        big.add_edge(0, 1);
        let big = big.build();
        assert!(big.adjacency_bits().is_none(), "above the size gate");
        // CSR fallbacks still answer queries.
        assert!(big.has_edge(VertexId::new(0), VertexId::new(1)));
        assert!(!big.has_edge(VertexId::new(1), VertexId::new(2)));
    }

    #[test]
    fn equality_ignores_bitmap_cache_state() {
        let a = triangle();
        let b = triangle();
        let _ = a.adjacency_bits();
        assert_eq!(a, b, "built bitmap on one side must not break equality");
        let c = a.clone();
        assert_eq!(a, c);
    }

    #[test]
    fn edge_queries_agree_with_and_without_bitmap() {
        // High-degree regression corpus for the find_edge binary search:
        // star (one hub of degree n-1) and complete graphs, queried both
        // before and after the bitmap exists.
        for g in [crate::generators::star(80), crate::generators::complete(20)] {
            let plain: Vec<Option<EdgeId>> = g
                .vertices()
                .flat_map(|a| g.vertices().map(move |b| (a, b)))
                .map(|(a, b)| g.find_edge(a, b))
                .collect();
            g.adjacency_bits().expect("within size gate");
            let with_bits: Vec<Option<EdgeId>> = g
                .vertices()
                .flat_map(|a| g.vertices().map(move |b| (a, b)))
                .map(|(a, b)| g.find_edge(a, b))
                .collect();
            assert_eq!(plain, with_bits);
            for (a, b) in g.vertices().flat_map(|a| g.vertices().map(move |b| (a, b))) {
                assert_eq!(g.has_edge(a, b), g.find_edge(a, b).is_some());
                if let Some(e) = g.find_edge(a, b) {
                    assert!(g.endpoints(e).contains(a) && g.endpoints(e).contains(b));
                }
            }
        }
    }

    #[test]
    fn ids_display() {
        assert_eq!(VertexId::new(3).to_string(), "v3");
        assert_eq!(EdgeId::new(7).to_string(), "e7");
        assert_eq!(format!("{:?}", VertexId::new(3)), "v3");
    }
}
