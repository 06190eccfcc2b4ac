//! Structural graph predicates: connectivity, bipartiteness, regularity.

use std::collections::VecDeque;

use crate::{Graph, GraphError, VertexId, VertexSet};

/// Whether the graph is connected (the empty graph counts as connected).
///
/// # Examples
///
/// ```
/// use defender_graph::{generators, properties};
///
/// assert!(properties::is_connected(&generators::cycle(5)));
/// ```
#[must_use]
pub fn is_connected(graph: &Graph) -> bool {
    if graph.vertex_count() == 0 {
        return true;
    }
    let (_, count) = crate::traversal::components(graph);
    count == 1
}

/// A two-coloring of a bipartite graph: the two sides of the bipartition.
///
/// Produced by [`bipartition`]; both sides are sorted vertex sets and
/// together partition `V`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bipartition {
    /// Vertices colored 0 (contains the smallest vertex of each component).
    pub left: VertexSet,
    /// Vertices colored 1.
    pub right: VertexSet,
}

impl Bipartition {
    /// The side containing vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` appears in neither side (not a vertex of the graph the
    /// bipartition was computed for); use [`Bipartition::try_side_of`] when
    /// membership is not guaranteed.
    #[must_use]
    pub fn side_of(&self, v: VertexId) -> usize {
        match self.try_side_of(v) {
            Some(side) => side,
            #[expect(
                clippy::panic,
                reason = "documented contract; try_side_of is the fallible form"
            )]
            None => panic!("{v} is not covered by this bipartition"),
        }
    }

    /// The side (0 = left, 1 = right) containing `v`, or `None` if `v` is
    /// not covered by the bipartition.
    #[must_use]
    pub fn try_side_of(&self, v: VertexId) -> Option<usize> {
        if self.left.binary_search(&v).is_ok() {
            Some(0)
        } else if self.right.binary_search(&v).is_ok() {
            Some(1)
        } else {
            None
        }
    }
}

/// Computes a bipartition of `graph` by BFS two-coloring.
///
/// # Errors
///
/// Returns [`GraphError::NotBipartite`] if the graph contains an odd cycle.
///
/// # Examples
///
/// ```
/// use defender_graph::{generators, properties};
///
/// let g = generators::complete_bipartite(2, 3);
/// let bp = properties::bipartition(&g)?;
/// assert_eq!(bp.left.len(), 2);
/// assert_eq!(bp.right.len(), 3);
/// assert!(properties::bipartition(&generators::cycle(5)).is_err());
/// # Ok::<(), defender_graph::GraphError>(())
/// ```
pub fn bipartition(graph: &Graph) -> Result<Bipartition, GraphError> {
    let mut color: Vec<Option<u8>> = vec![None; graph.vertex_count()];
    // Both neighbor sources enumerate in increasing id order, so the
    // coloring (and hence the returned sides) is identical either way; the
    // packed rows just trade pointer-chasing for word scans when a bitmap
    // already exists.
    match graph.built_bits() {
        Some(bits) => two_color(graph, |v| bits.neighbors(v), &mut color)?,
        None => two_color(graph, |v| graph.neighbors(v), &mut color)?,
    }
    let mut left = Vec::new();
    let mut right = Vec::new();
    for v in graph.vertices() {
        match color[v.index()] {
            Some(0) => left.push(v),
            _ => right.push(v),
        }
    }
    Ok(Bipartition { left, right })
}

/// BFS two-coloring over an arbitrary neighbor source.
fn two_color<'a, I, F>(
    graph: &Graph,
    neighbors: F,
    color: &mut [Option<u8>],
) -> Result<(), GraphError>
where
    F: Fn(VertexId) -> I,
    I: Iterator<Item = VertexId> + 'a,
{
    for source in graph.vertices() {
        if color[source.index()].is_some() {
            continue;
        }
        color[source.index()] = Some(0);
        // The queue carries each vertex's color so no re-lookup (and no
        // "queued vertices are colored" proof obligation) is needed.
        let mut queue = VecDeque::from([(source, 0u8)]);
        while let Some((v, cv)) = queue.pop_front() {
            for w in neighbors(v) {
                match color[w.index()] {
                    None => {
                        color[w.index()] = Some(1 - cv);
                        queue.push_back((w, 1 - cv));
                    }
                    Some(cw) if cw == cv => return Err(GraphError::NotBipartite),
                    Some(_) => {}
                }
            }
        }
    }
    Ok(())
}

/// Whether the graph is bipartite.
#[must_use]
pub fn is_bipartite(graph: &Graph) -> bool {
    bipartition(graph).is_ok()
}

/// Whether every vertex has the same degree `d`; returns that degree.
#[must_use]
pub fn regularity(graph: &Graph) -> Option<usize> {
    let mut degrees = graph.vertices().map(|v| graph.degree(v));
    let first = degrees.next()?;
    degrees.all(|d| d == first).then_some(first)
}

/// The sorted degree sequence of the graph (ascending).
#[must_use]
pub fn degree_sequence(graph: &Graph) -> Vec<usize> {
    let mut ds: Vec<usize> = graph.vertices().map(|v| graph.degree(v)).collect();
    ds.sort_unstable();
    ds
}

/// Validates the standing assumptions of the Tuple model: non-empty and no
/// isolated vertices.
///
/// # Errors
///
/// Returns [`GraphError::EmptyGraph`] or [`GraphError::IsolatedVertex`].
pub fn check_game_ready(graph: &Graph) -> Result<(), GraphError> {
    if graph.vertex_count() == 0 {
        return Err(GraphError::EmptyGraph);
    }
    if let Some(v) = graph.vertices().find(|&v| graph.degree(v) == 0) {
        return Err(GraphError::IsolatedVertex { vertex: v });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generators, GraphBuilder};

    #[test]
    fn connectivity() {
        assert!(is_connected(&generators::path(6)));
        assert!(is_connected(&GraphBuilder::new(0).build()));
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(2, 3);
        assert!(!is_connected(&b.build()));
    }

    #[test]
    fn even_cycles_bipartite_odd_not() {
        assert!(is_bipartite(&generators::cycle(4)));
        assert!(is_bipartite(&generators::cycle(8)));
        assert!(!is_bipartite(&generators::cycle(3)));
        assert!(!is_bipartite(&generators::cycle(7)));
    }

    #[test]
    fn bipartition_sides_partition_v() {
        let g = generators::complete_bipartite(3, 5);
        let bp = bipartition(&g).unwrap();
        assert_eq!(bp.left.len() + bp.right.len(), g.vertex_count());
        for v in &bp.left {
            for w in g.neighbors(*v) {
                assert!(bp.right.binary_search(&w).is_ok(), "edges cross sides");
            }
        }
    }

    #[test]
    fn bipartition_side_of() {
        let g = generators::path(3);
        let bp = bipartition(&g).unwrap();
        assert_eq!(bp.side_of(VertexId::new(0)), 0);
        assert_eq!(bp.side_of(VertexId::new(1)), 1);
        assert_eq!(bp.side_of(VertexId::new(2)), 0);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn side_of_unknown_vertex_panics() {
        let g = generators::path(2);
        let bp = bipartition(&g).unwrap();
        let _ = bp.side_of(VertexId::new(9));
    }

    #[test]
    fn bipartition_handles_disconnected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1).add_edge(2, 3);
        let bp = bipartition(&b.build()).unwrap();
        assert_eq!(bp.left, vec![VertexId::new(0), VertexId::new(2)]);
    }

    #[test]
    fn bipartition_identical_with_and_without_bitmap() {
        for g in [
            generators::complete_bipartite(4, 9),
            generators::grid(6, 11), // 66 vertices: rows span two words
            generators::hypercube(4),
        ] {
            let before = bipartition(&g).unwrap();
            g.adjacency_bits().expect("within size gate");
            assert_eq!(bipartition(&g).unwrap(), before);
        }
        let odd = generators::cycle(9);
        odd.adjacency_bits().unwrap();
        assert!(bipartition(&odd).is_err());
    }

    #[test]
    fn regularity_detection() {
        assert_eq!(regularity(&generators::cycle(5)), Some(2));
        assert_eq!(regularity(&generators::complete(4)), Some(3));
        assert_eq!(regularity(&generators::star(3)), None);
        assert_eq!(regularity(&GraphBuilder::new(0).build()), None);
    }

    #[test]
    fn degree_sequence_sorted() {
        assert_eq!(degree_sequence(&generators::star(3)), vec![1, 1, 1, 3]);
    }

    #[test]
    fn game_ready_checks() {
        assert!(check_game_ready(&generators::path(2)).is_ok());
        assert_eq!(
            check_game_ready(&GraphBuilder::new(0).build()),
            Err(GraphError::EmptyGraph)
        );
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        assert_eq!(
            check_game_ready(&b.build()),
            Err(GraphError::IsolatedVertex {
                vertex: VertexId::new(2)
            })
        );
    }
}
