//! Exact linear programming over rationals, and zero-sum game solving.
//!
//! The constructive theory of the paper covers bipartite graphs
//! (Theorem 5.1) and, via the covering extension, perfect-matching graphs.
//! For *arbitrary* graphs the single-attacker Tuple game is still a finite
//! two-player constant-sum game, so its exact value and optimal mixed
//! strategies come out of one linear program. This crate supplies the
//! machinery: a tableau [`simplex`] with Bland's anti-cycling rule over
//! [`defender_num::Ratio`] (no floating point anywhere), and the classical
//! LP formulation of matrix games ([`zero_sum`]).
//!
//! # Examples
//!
//! Matching pennies has value 0 and uniform optimal strategies:
//!
//! ```
//! use defender_lp::zero_sum::solve_zero_sum;
//! use defender_num::Ratio;
//!
//! let m = vec![
//!     vec![Ratio::from(1), Ratio::from(-1)],
//!     vec![Ratio::from(-1), Ratio::from(1)],
//! ];
//! let solution = solve_zero_sum(&m).unwrap();
//! assert_eq!(solution.value, Ratio::ZERO);
//! assert_eq!(solution.row_strategy, vec![Ratio::new(1, 2), Ratio::new(1, 2)]);
//! ```

#![warn(missing_docs, missing_debug_implementations)]

pub mod linsolve;
pub mod simplex;
pub mod zero_sum;

pub use linsolve::{determinant, solve_linear};
pub use simplex::{maximize, solve_with_basis, LpError, LpSolution, DEFAULT_PIVOT_LIMIT};
pub use zero_sum::{solve_zero_sum, solve_zero_sum_hinted, ZeroSumSolution};
