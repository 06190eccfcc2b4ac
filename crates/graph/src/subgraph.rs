//! Subgraph extraction: "the graph obtained by an edge set" (`G_T` in the
//! paper's §2) and induced subgraphs.

use crate::{EdgeId, Graph, GraphBuilder, VertexId};

/// The result of a subgraph extraction: the new graph plus maps back to
/// the parent's ids.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The extracted graph, with vertices renumbered `0..`.
    pub graph: Graph,
    /// `vertex_map[i]` is the parent vertex represented by new vertex `i`.
    pub vertex_map: Vec<VertexId>,
    /// `edge_map[j]` is the parent edge represented by new edge `j`.
    pub edge_map: Vec<EdgeId>,
}

impl Subgraph {
    /// Translates a new vertex id back to the parent's id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the subgraph.
    #[must_use]
    pub fn parent_vertex(&self, v: VertexId) -> VertexId {
        self.vertex_map[v.index()]
    }

    /// Translates a parent vertex id into the subgraph, if present.
    #[must_use]
    pub fn local_vertex(&self, parent: VertexId) -> Option<VertexId> {
        self.vertex_map
            .binary_search(&parent)
            .ok()
            .map(VertexId::new)
    }
}

/// The graph `G_T` spanned by an edge set: its vertices are exactly the
/// endpoints `V(T)` and its edges are `T`. Vertices are renumbered
/// compactly; the [`Subgraph`] maps recover parent ids.
///
/// # Panics
///
/// Panics if any edge id is out of range.
///
/// # Examples
///
/// ```
/// use defender_graph::{generators, subgraph, EdgeId};
///
/// let g = generators::cycle(5);
/// let sub = subgraph::spanned_by_edges(&g, &[EdgeId::new(0), EdgeId::new(1)]);
/// assert_eq!(sub.graph.vertex_count(), 3);
/// assert_eq!(sub.graph.edge_count(), 2);
/// ```
#[must_use]
pub fn spanned_by_edges(graph: &Graph, edges: &[EdgeId]) -> Subgraph {
    let mut sorted_edges = edges.to_vec();
    sorted_edges.sort_unstable();
    sorted_edges.dedup();
    let vertex_map = graph.endpoint_set(&sorted_edges);
    #[expect(
        clippy::expect_used,
        reason = "vertex_map is the sorted endpoint set of these exact edges"
    )]
    let local = |parent: VertexId| {
        VertexId::new(
            vertex_map
                .binary_search(&parent)
                .expect("endpoint is in the endpoint set"),
        )
    };
    let mut b = GraphBuilder::new(vertex_map.len());
    for &e in &sorted_edges {
        let ep = graph.endpoints(e);
        b.add_edge_ids(local(ep.u()), local(ep.v()));
    }
    Subgraph {
        graph: b.build(),
        vertex_map,
        edge_map: sorted_edges,
    }
}

/// The subgraph induced by a vertex set: those vertices and every parent
/// edge with both endpoints inside.
///
/// # Panics
///
/// Panics if any vertex id is out of range.
#[must_use]
pub fn induced_by_vertices(graph: &Graph, vertices: &[VertexId]) -> Subgraph {
    let mut vertex_map = vertices.to_vec();
    vertex_map.sort_unstable();
    vertex_map.dedup();
    let mut member = vec![false; graph.vertex_count()];
    for &v in &vertex_map {
        member[v.index()] = true;
    }
    #[expect(
        clippy::expect_used,
        reason = "vertex_map holds every member vertex by construction"
    )]
    let local = |parent: VertexId| {
        VertexId::new(
            vertex_map
                .binary_search(&parent)
                .expect("vertex is a member"),
        )
    };
    let mut b = GraphBuilder::new(vertex_map.len());
    let mut edge_map = Vec::new();
    for e in graph.edges() {
        let ep = graph.endpoints(e);
        if member[ep.u().index()] && member[ep.v().index()] {
            b.add_edge_ids(local(ep.u()), local(ep.v()));
            edge_map.push(e);
        }
    }
    Subgraph {
        graph: b.build(),
        vertex_map,
        edge_map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn spanned_by_edges_basic() {
        let g = generators::path(5); // edges in id order: (0,1),(1,2),(2,3),(3,4)
        let sub = spanned_by_edges(&g, &[EdgeId::new(0), EdgeId::new(3)]);
        assert_eq!(sub.graph.vertex_count(), 4);
        assert_eq!(sub.graph.edge_count(), 2);
        assert_eq!(
            sub.vertex_map,
            vec![
                VertexId::new(0),
                VertexId::new(1),
                VertexId::new(3),
                VertexId::new(4)
            ]
        );
    }

    #[test]
    fn spanned_by_edges_dedups_input() {
        let g = generators::cycle(4);
        let sub = spanned_by_edges(&g, &[EdgeId::new(1), EdgeId::new(1)]);
        assert_eq!(sub.graph.edge_count(), 1);
    }

    #[test]
    fn spanned_by_all_edges_is_whole_graph() {
        let g = generators::petersen();
        let all: Vec<EdgeId> = g.edges().collect();
        let sub = spanned_by_edges(&g, &all);
        assert_eq!(sub.graph.vertex_count(), g.vertex_count());
        assert_eq!(sub.graph.edge_count(), g.edge_count());
    }

    #[test]
    fn vertex_maps_round_trip() {
        let g = generators::cycle(6);
        let sub = spanned_by_edges(&g, &[EdgeId::new(2), EdgeId::new(4)]);
        for v in sub.graph.vertices() {
            let parent = sub.parent_vertex(v);
            assert_eq!(sub.local_vertex(parent), Some(v));
        }
        assert_eq!(sub.local_vertex(VertexId::new(0)), None);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = generators::complete(5);
        let picks: Vec<VertexId> = [0, 1, 2].into_iter().map(VertexId::new).collect();
        let sub = induced_by_vertices(&g, &picks);
        assert_eq!(sub.graph.vertex_count(), 3);
        assert_eq!(sub.graph.edge_count(), 3, "K3 inside K5");
        assert_eq!(sub.edge_map.len(), 3);
    }

    #[test]
    fn induced_subgraph_of_independent_set_is_edgeless() {
        let g = generators::cycle(6);
        let picks: Vec<VertexId> = [0, 2, 4].into_iter().map(VertexId::new).collect();
        let sub = induced_by_vertices(&g, &picks);
        assert_eq!(sub.graph.edge_count(), 0);
    }
}
