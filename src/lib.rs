//! # The Power of the Defender — reproduction facade
//!
//! This crate re-exports the public API of the workspace that reproduces
//! *"The Power of the Defender"* (Gelastou, Mavronicolas, Papadopoulou,
//! Philippou, Spirakis — ICDCS 2006): a network-security game on a graph in
//! which `ν` attackers each pick a vertex and a single defender picks a
//! tuple of `k` edges, catching every attacker sitting on an endpoint.
//!
//! The heavy lifting lives in the member crates:
//!
//! - [`num`] — exact rational arithmetic ([`defender_num`]),
//! - [`graph`] — the undirected-graph substrate ([`defender_graph`]),
//! - [`matching`] — matching algorithms ([`defender_matching`]),
//! - [`game`] — the generic strategic-game substrate ([`defender_game`]),
//! - [`core`] — the paper itself: the Tuple model and its equilibria
//!   ([`defender_core`]).
//!
//! # Quick start
//!
//! Compute the k-matching Nash equilibrium of the Tuple model on a complete
//! bipartite graph and read off the defender's expected gain:
//!
//! ```
//! use power_of_the_defender::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = generators::complete_bipartite(3, 4);
//! let game = TupleGame::new(&graph, /* defender width k = */ 2, /* attackers ν = */ 6)?;
//! let equilibrium = a_tuple_bipartite(&game)?;
//!
//! // Theorem 4.5 / Corollary 4.10: the defender's gain is k·ν/|IS|.
//! assert_eq!(equilibrium.defender_gain(), Ratio::new(2 * 6, 4));
//! # Ok(())
//! # }
//! ```

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

pub use defender_core as core;
pub use defender_game as game;
pub use defender_graph as graph;
pub use defender_lp as lp;
pub use defender_matching as matching;
pub use defender_num as num;

/// Convenient single-import surface for examples and downstream users.
pub mod prelude {
    pub use defender_core::{
        a_tuple, a_tuple_bipartite,
        algorithm::ATupleReport,
        best_response::{attacker_best_response, defender_best_response_greedy},
        characterization::{verify_mixed_ne, MixedNeReport, VerificationMode},
        covering_ne::{covering_ne, CoveringNe},
        defense::{defense_ratio, defense_ratio_lower_bound, is_defense_optimal},
        dynamics::{fictitious_play, OracleMode, PlayTrace},
        gain::{defender_gain, quality_of_protection},
        k_matching::{KMatchingConfig, KMatchingNe},
        matching_ne::{algorithm_a, MatchingConfig, MatchingNe},
        model::{EdgeGame, MixedConfig, PureConfig, TupleGame},
        path_model::{cycle_path_ne, pure_ne_existence_path, PathModelNe, PathStrategy},
        pure::{pure_ne_existence, PureNeOutcome},
        reduction::{expand_to_k_matching, restrict_to_matching},
        simulate::{SimulationConfig, Simulator},
        solve::{solve_exact, ExactEquilibrium},
        tree::a_tuple_tree,
        tuple::Tuple,
        CoreError,
    };
    pub use defender_graph::{generators, EdgeId, Graph, GraphBuilder, VertexId};
    pub use defender_matching::{
        hopcroft_karp, koenig_vertex_cover, maximum_matching, minimum_edge_cover, Matching,
    };
    pub use defender_num::Ratio;
}
