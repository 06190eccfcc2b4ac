//! defender-sweep — out-of-process sharded sweep runner.
//!
//! Splits one experiment's instance corpus across worker processes
//! (`exp <name> --shard i/N`, one per shard), waits for them, checkpoints
//! finished shards so a killed sweep resumes instead of restarting, and
//! merges the per-shard `BENCH_*.json` sidecars into one sweep-level
//! report whose counters object is byte-identical for every shard width.
//! DESIGN.md §14 documents the architecture; EXPERIMENTS.md documents
//! the `sw.*` metric namespace.
//!
//! Module map:
//!
//! - [`runner`] — process orchestration, checkpoint-resume, scheduling;
//! - [`merge`] — sidecar merging and the counters byte-identity unit.

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

pub mod merge;
pub mod runner;

pub use merge::{counters_object, merge_sidecars};
pub use runner::{run_sweep, SweepConfig, SweepOutcome};
