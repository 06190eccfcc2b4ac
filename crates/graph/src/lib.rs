//! Undirected-graph substrate for the Tuple model.
//!
//! The paper plays the game on an undirected graph `G(V, E)` with no
//! isolated vertices. Everything the equilibrium theory consumes lives
//! here:
//!
//! - a compact, immutable [`Graph`] representation with id newtypes
//!   ([`VertexId`], [`EdgeId`]) and a [`GraphBuilder`];
//! - deterministic and seeded-random [`generators`];
//! - [`traversal`] (BFS/DFS), connectivity and [`properties`]
//!   (bipartition extraction, degree statistics);
//! - the covering/packing notions of §2.1 of the paper: independent sets
//!   ([`independent_set`]), vertex covers ([`vertex_cover`]), edge covers
//!   ([`edge_cover`]) and `VC`-expander checks ([`expander`]);
//! - [`subgraph`] extraction ("the graph obtained by an edge set") and
//!   [`dot`] export for debugging.
//!
//! # Examples
//!
//! ```
//! use defender_graph::{generators, VertexId};
//!
//! let g = generators::cycle(4);
//! assert_eq!(g.vertex_count(), 4);
//! assert_eq!(g.edge_count(), 4);
//! assert_eq!(g.degree(VertexId::new(0)), 2);
//! assert!(defender_graph::properties::is_connected(&g));
//! ```

#![warn(missing_docs, missing_debug_implementations)]
// Workspace invariants (DESIGN.md §12): determinism, panic.
#![warn(
    clippy::disallowed_types,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

mod bitset;
mod builder;
mod error;
mod graph;

pub mod canonical;
pub mod dot;
pub mod edge_cover;
pub mod expander;
pub mod generators;
pub mod graph6;
pub mod independent_set;
pub mod ops;
pub mod properties;
pub mod subgraph;
pub mod traversal;
pub mod vertex_cover;

pub use bitset::AdjacencyBits;
pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{EdgeId, Endpoints, Graph, VertexId};

/// A set of vertices, kept sorted and deduplicated.
///
/// Used throughout for supports, covers and independent sets; the sorted
/// representation makes membership tests `O(log n)` and equality structural.
pub type VertexSet = Vec<VertexId>;

/// A set of edges, kept sorted and deduplicated.
pub type EdgeSet = Vec<EdgeId>;
