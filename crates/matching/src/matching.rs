//! The [`Matching`] type: a set of pairwise vertex-disjoint edges.

use core::fmt;

use defender_graph::{EdgeId, Graph, VertexId};

/// Errors from [`Matching::from_edges`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MatchingError {
    /// Two supplied edges share the given vertex.
    SharedVertex {
        /// The vertex on two of the supplied edges.
        vertex: VertexId,
    },
    /// An edge id was out of range for the graph.
    UnknownEdge {
        /// The offending index.
        index: usize,
    },
}

impl fmt::Display for MatchingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatchingError::SharedVertex { vertex } => {
                write!(f, "edges share vertex {vertex}; not a matching")
            }
            MatchingError::UnknownEdge { index } => {
                write!(f, "edge index {index} out of range")
            }
        }
    }
}

impl std::error::Error for MatchingError {}

/// A matching of a graph: edges no two of which share a vertex.
///
/// Stores both the edge set and the induced partner map, so partner lookup
/// is `O(1)`.
///
/// # Examples
///
/// ```
/// use defender_graph::{generators, EdgeId};
/// use defender_matching::Matching;
///
/// let g = generators::path(4); // edges (0,1), (1,2), (2,3)
/// let m = Matching::from_edges(&g, vec![EdgeId::new(0), EdgeId::new(2)])?;
/// assert_eq!(m.len(), 2);
/// assert!(m.is_perfect(&g));
/// # Ok::<(), defender_matching::MatchingError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Matching {
    edges: Vec<EdgeId>,
    partner: Vec<Option<VertexId>>,
}

impl Matching {
    /// The empty matching of a graph with `vertex_count` vertices.
    #[must_use]
    pub fn empty(vertex_count: usize) -> Matching {
        Matching {
            edges: Vec::new(),
            partner: vec![None; vertex_count],
        }
    }

    /// Builds a matching from explicit edges, validating disjointness.
    ///
    /// # Errors
    ///
    /// Returns [`MatchingError::SharedVertex`] if two edges collide and
    /// [`MatchingError::UnknownEdge`] for out-of-range ids.
    pub fn from_edges(graph: &Graph, mut edges: Vec<EdgeId>) -> Result<Matching, MatchingError> {
        edges.sort_unstable();
        edges.dedup();
        let mut partner: Vec<Option<VertexId>> = vec![None; graph.vertex_count()];
        for &e in &edges {
            if e.index() >= graph.edge_count() {
                return Err(MatchingError::UnknownEdge { index: e.index() });
            }
            let ep = graph.endpoints(e);
            for (a, b) in [(ep.u(), ep.v()), (ep.v(), ep.u())] {
                if partner[a.index()].is_some() {
                    return Err(MatchingError::SharedVertex { vertex: a });
                }
                partner[a.index()] = Some(b);
            }
        }
        Ok(Matching { edges, partner })
    }

    /// Builds from a partner map (used internally by the algorithms).
    ///
    /// # Panics
    ///
    /// Panics if the map is not symmetric or references a missing edge.
    pub(crate) fn from_partner_map(graph: &Graph, partner: Vec<Option<VertexId>>) -> Matching {
        let mut edges = Vec::new();
        for v in graph.vertices() {
            if let Some(w) = partner[v.index()] {
                assert_eq!(partner[w.index()], Some(v), "partner map must be symmetric");
                if v < w {
                    #[expect(clippy::expect_used, reason = "matched pairs are edges of the graph")]
                    let e = graph
                        .find_edge(v, w)
                        .expect("matched pair must be an edge of the graph");
                    edges.push(e);
                }
            }
        }
        edges.sort_unstable();
        Matching { edges, partner }
    }

    /// Number of matched edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the matching has no edges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The matched edges, sorted by id.
    #[must_use]
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// The partner of `v`, if matched.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[must_use]
    pub fn partner(&self, v: VertexId) -> Option<VertexId> {
        self.partner[v.index()]
    }

    /// Whether `v` is matched.
    #[must_use]
    pub fn is_matched(&self, v: VertexId) -> bool {
        self.partner(v).is_some()
    }

    /// Whether every vertex of `set` is matched (the paper's "`S` is
    /// matched in `M`").
    #[must_use]
    pub fn saturates(&self, set: &[VertexId]) -> bool {
        set.iter().all(|&v| self.is_matched(v))
    }

    /// Whether the matching is perfect for `graph` (every vertex matched).
    #[must_use]
    pub fn is_perfect(&self, graph: &Graph) -> bool {
        graph.vertices().all(|v| self.is_matched(v))
    }

    /// Whether no edge of `graph` can be added (maximality).
    #[must_use]
    pub fn is_maximal(&self, graph: &Graph) -> bool {
        graph.edges().all(|e| {
            let ep = graph.endpoints(e);
            self.is_matched(ep.u()) || self.is_matched(ep.v())
        })
    }

    /// The matched vertices, sorted.
    #[must_use]
    pub fn matched_vertices(&self) -> Vec<VertexId> {
        (0..self.partner.len())
            .filter(|&i| self.partner[i].is_some())
            .map(VertexId::new)
            .collect()
    }

    /// The unmatched (exposed) vertices, sorted.
    #[must_use]
    pub fn exposed_vertices(&self) -> Vec<VertexId> {
        (0..self.partner.len())
            .filter(|&i| self.partner[i].is_none())
            .map(VertexId::new)
            .collect()
    }
}

impl fmt::Debug for Matching {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Matching")
            .field("size", &self.len())
            .field("edges", &self.edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::generators;

    #[test]
    fn from_edges_validates() {
        let g = generators::path(4);
        assert!(Matching::from_edges(&g, vec![EdgeId::new(0), EdgeId::new(2)]).is_ok());
        let err = Matching::from_edges(&g, vec![EdgeId::new(0), EdgeId::new(1)]).unwrap_err();
        assert_eq!(
            err,
            MatchingError::SharedVertex {
                vertex: VertexId::new(1)
            }
        );
        let err = Matching::from_edges(&g, vec![EdgeId::new(9)]).unwrap_err();
        assert_eq!(err, MatchingError::UnknownEdge { index: 9 });
    }

    #[test]
    fn duplicate_edges_tolerated() {
        let g = generators::path(2);
        let m = Matching::from_edges(&g, vec![EdgeId::new(0), EdgeId::new(0)]).unwrap();
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn partner_lookup() {
        let g = generators::path(4);
        let m = Matching::from_edges(&g, vec![EdgeId::new(1)]).unwrap();
        assert_eq!(m.partner(VertexId::new(1)), Some(VertexId::new(2)));
        assert_eq!(m.partner(VertexId::new(2)), Some(VertexId::new(1)));
        assert_eq!(m.partner(VertexId::new(0)), None);
    }

    #[test]
    fn saturation_and_perfection() {
        let g = generators::path(4);
        let m = Matching::from_edges(&g, vec![EdgeId::new(0), EdgeId::new(2)]).unwrap();
        assert!(m.is_perfect(&g));
        assert!(m.saturates(&[VertexId::new(0), VertexId::new(3)]));
        let partial = Matching::from_edges(&g, vec![EdgeId::new(0)]).unwrap();
        assert!(!partial.is_perfect(&g));
        assert!(!partial.saturates(&[VertexId::new(2)]));
    }

    #[test]
    fn maximality() {
        let g = generators::path(5);
        let mid = Matching::from_edges(&g, vec![EdgeId::new(1), EdgeId::new(3)]).unwrap();
        assert!(mid.is_maximal(&g));
        let bad = Matching::from_edges(&g, vec![EdgeId::new(0)]).unwrap();
        assert!(!bad.is_maximal(&g));
    }

    #[test]
    fn vertex_listings() {
        let g = generators::path(4);
        let m = Matching::from_edges(&g, vec![EdgeId::new(0)]).unwrap();
        assert_eq!(
            m.matched_vertices(),
            vec![VertexId::new(0), VertexId::new(1)]
        );
        assert_eq!(
            m.exposed_vertices(),
            vec![VertexId::new(2), VertexId::new(3)]
        );
    }

    #[test]
    fn empty_matching() {
        let m = Matching::empty(3);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.exposed_vertices().len(), 3);
    }

    #[test]
    fn error_display() {
        let err = MatchingError::SharedVertex {
            vertex: VertexId::new(2),
        };
        assert!(err.to_string().contains("v2"));
        assert!(MatchingError::UnknownEdge { index: 1 }
            .to_string()
            .contains('1'));
    }
}
