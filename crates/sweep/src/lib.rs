//! defender-sweep — out-of-process sharded sweep runner.
//!
//! Splits one experiment's instance corpus across worker processes
//! (`exp <name> --shard i/N --telemetry`, one per shard), streams
//! each worker's NDJSON telemetry into a live dashboard, checkpoints
//! finished shards so a killed sweep resumes instead of restarting, and
//! merges the per-shard `BENCH_*.json` sidecars into one sweep-level
//! report whose counters object is byte-identical for every shard width.
//! DESIGN.md §14 documents the architecture; EXPERIMENTS.md documents
//! the wire protocol and the `sw.*` metric namespace.
//!
//! Module map:
//!
//! - [`protocol`] — parse side of the NDJSON shard telemetry (the emit
//!   side is `defender_obs::telemetry`);
//! - [`monitor`] — per-shard progress/rate/ETA/stall aggregation and the
//!   text dashboard;
//! - [`runner`] — process orchestration, checkpoint-resume, scheduling;
//! - [`merge`] — sidecar merging and the counters byte-identity unit.

pub mod merge;
pub mod monitor;
pub mod protocol;
pub mod runner;

pub use merge::{counters_object, merge_sidecars};
pub use monitor::{Monitor, ShardState, ShardView};
pub use protocol::{parse_line, ShardEvent};
pub use runner::{run_sweep, SweepConfig, SweepOutcome};
