//! Finite strategic-game substrate.
//!
//! The Tuple model is a finite non-cooperative game in normal form. This
//! crate provides the game-theoretic machinery independent of graphs:
//!
//! - sparse [`MixedStrategy`] distributions over arbitrary strategy types
//!   with *exact rational* probabilities ([`defender_num::Ratio`]);
//! - a [`StrategicGame`] trait abstracting payoff evaluation;
//! - expected-payoff computation, best-response queries and exact Nash
//!   verification ([`nash`]) with brute-force helpers for cross-validation
//!   on tiny games.
//!
//! # Examples
//!
//! Matching pennies has the uniform profile as its unique equilibrium:
//!
//! ```
//! use defender_game::{nash, MixedStrategy, TwoPlayerMatrixGame};
//! use defender_num::Ratio;
//!
//! let game = TwoPlayerMatrixGame::zero_sum(vec![
//!     vec![Ratio::from(1), Ratio::from(-1)],
//!     vec![Ratio::from(-1), Ratio::from(1)],
//! ]);
//! let uniform = MixedStrategy::uniform(vec![0usize, 1]);
//! let report = nash::verify_two_player(&game, &uniform, &uniform);
//! assert!(report.is_equilibrium());
//! ```

#![warn(missing_docs, missing_debug_implementations)]

mod matrix;
mod strategy;

pub mod nash;
pub mod support_enumeration;

pub use matrix::TwoPlayerMatrixGame;
pub use strategy::{MixedStrategy, StrategyError};
pub use support_enumeration::{
    enumerate_equilibria, first_equilibrium_supports, BimatrixEquilibrium,
};

use defender_num::Ratio;

/// A finite strategic game evaluated through pure-profile payoffs.
///
/// Implementors expose, for each player, the finite strategy universe and
/// the payoff of any pure profile. The generic Nash machinery in [`nash`]
/// builds expected payoffs on top.
pub trait StrategicGame {
    /// A pure strategy (cloneable, comparable for support bookkeeping).
    type Strategy: Clone + Ord;

    /// Number of players.
    fn player_count(&self) -> usize;

    /// The strategy universe of `player` (finite, non-empty).
    fn strategies(&self, player: usize) -> Vec<Self::Strategy>;

    /// Payoff of `player` under the pure profile (one strategy per player).
    fn payoff(&self, player: usize, profile: &[Self::Strategy]) -> Ratio;
}
