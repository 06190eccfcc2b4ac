//! Matching-theory substrate for the Tuple model.
//!
//! The equilibrium constructions of the paper reduce to classical matching
//! computations:
//!
//! - the matching-NE algorithm `A` of \[7\] matches the vertex cover `VC`
//!   into the independent set `IS` — bipartite maximum matching
//!   ([`hopcroft_karp()`](hopcroft_karp::hopcroft_karp));
//! - Theorem 5.1 needs a minimum vertex cover of a bipartite graph —
//!   König's theorem ([`koenig_vertex_cover`]);
//! - Theorem 3.1 / Corollary 3.2 need minimum edge covers of arbitrary
//!   graphs — Gallai's identity `ρ(G) = n − μ(G)` on top of a general
//!   maximum matching ([`maximum_matching`], Edmonds' blossom algorithm);
//! - the corrected expander condition of Theorem 2.2 is a Hall condition
//!   ([`hall`]).
//!
//! # Examples
//!
//! ```
//! use defender_graph::generators;
//! use defender_matching::{maximum_matching, minimum_edge_cover};
//!
//! let g = generators::petersen();
//! assert_eq!(maximum_matching(&g).len(), 5); // perfect matching
//! assert_eq!(minimum_edge_cover(&g).unwrap().len(), 5); // ρ = n − μ
//! ```

#![warn(missing_docs, missing_debug_implementations)]
// Workspace invariants (DESIGN.md §12): exactness, determinism, panic, cast.
#![warn(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::float_arithmetic,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]

mod blossom;
mod matching;

pub mod edge_cover;
pub mod greedy;
pub mod hall;
pub mod hopcroft_karp;
pub mod koenig;
pub mod tree;

pub use blossom::{matching_number, maximum_matching};
pub use edge_cover::minimum_edge_cover;
pub use hopcroft_karp::hopcroft_karp;
pub use koenig::koenig_vertex_cover;
pub use matching::{Matching, MatchingError};
