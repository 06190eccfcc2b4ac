//! # The Tuple model — "The Power of the Defender" (ICDCS 2006)
//!
//! A network-security game `Π_k(G)` on an undirected graph `G`: `ν`
//! *vertex players* (attackers) each choose a vertex; one *tuple player*
//! (the defender, a security software) chooses a tuple of `k` distinct
//! edges and arrests every attacker sitting on an endpoint. Attackers
//! maximize their escape probability, the defender the expected number of
//! arrests. For `k = 1` this is the Edge model of Mavronicolas et al.
//!
//! The crate implements every result of the paper:
//!
//! | paper | here |
//! |---|---|
//! | Definition 2.1 (model, payoffs) | [`model`], [`payoff`] |
//! | Definition 2.2 / Lemma 2.1 / Theorem 2.2 (matching NE) | [`matching_ne`] |
//! | Theorem 3.1, Corollaries 3.2–3.3 (pure NE) | [`pure`] |
//! | Theorem 3.4 (mixed-NE characterization) | [`characterization`] |
//! | Definition 4.1, Lemma 4.1 (k-matching NE) | [`k_matching`] |
//! | Theorem 4.5, Lemmas 4.6/4.8, Claim 4.9, Cors 4.7/4.10 | [`reduction`] |
//! | Algorithm `A_tuple` (Fig. 1), Theorems 4.12–4.13 | [`algorithm`] |
//! | Theorem 5.1 (bipartite application) | [`bipartite`] |
//! | headline: gain linear in `k` | [`gain`] |
//!
//! Plus two pieces the paper only implies: a Monte-Carlo attack
//! [`simulate`]r standing in for the motivating deployment, and an
//! [`exhaustive`] first-principles verifier used to cross-validate the
//! structural results on small instances.
//!
//! Extensions beyond the paper (drawn from its related work \[8\]):
//!
//! - [`covering_ne`] — the perfect-matching equilibrium family, which
//!   also serves non-bipartite graphs (e.g. the Petersen graph);
//! - [`tree`] — an `O(n)` tree specialization replacing König;
//! - [`path_model`] — the defender-cleans-a-path variant: pure NE ⇔
//!   Hamiltonian path, plus a rotation equilibrium on cycles;
//! - [`best_response`] oracles (max coverage: exact + greedy) and
//!   fictitious-play [`dynamics`] that *learn* the equilibrium value;
//! - [`solve`] — exact equilibria on **arbitrary** graphs via a rational
//!   zero-sum LP (`defender-lp`), covering instances outside every
//!   constructive family;
//! - [`defense`] — defense ratio / Price of Defense: the universal
//!   `DR ≥ n/(2k)` bound and its tightness on perfect-matching graphs.
//!
//! # Quick start
//!
//! ```
//! use defender_core::{a_tuple_bipartite, model::TupleGame};
//! use defender_graph::generators;
//! use defender_num::Ratio;
//!
//! // A 3×4 bipartite network, a defender scanning k = 2 links, ν = 6 viruses.
//! let graph = generators::complete_bipartite(3, 4);
//! let game = TupleGame::new(&graph, 2, 6)?;
//! let ne = a_tuple_bipartite(&game)?; // Theorem 5.1
//!
//! // Corollary 4.10: expected arrests are k·ν/|IS| — linear in k.
//! assert_eq!(ne.defender_gain(), Ratio::new(2 * 6, 4));
//! # Ok::<(), defender_core::CoreError>(())
//! ```

#![warn(missing_docs, missing_debug_implementations)]

mod error;

pub mod algorithm;
pub mod best_response;
pub mod bipartite;
pub mod characterization;
pub mod covering_ne;
pub mod defense;
pub mod dynamics;
pub mod exhaustive;
pub mod gain;
pub mod k_matching;
pub mod matching_ne;
pub mod model;
pub mod path_model;
pub mod payoff;
pub mod pure;
pub mod reduction;
pub mod simulate;
pub mod solve;
pub mod tree;
pub mod tuple;

pub use algorithm::a_tuple;
pub use bipartite::{a_tuple_bipartite, a_tuple_bipartite_report};
pub use error::CoreError;
