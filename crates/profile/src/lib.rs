//! `defender-profile` — trace analytics for the workspace's observability
//! layer.
//!
//! `defender-obs` records span timelines (Chrome trace-event JSON via
//! `--trace`); this crate turns those timelines into answers: *where does
//! the time go?* It consumes the event stream from a saved trace file
//! ([`TraceInput::from_chrome_trace`]) and produces
//!
//! - a **self-time / total-time aggregation** per span name with call
//!   counts ([`Profile::spans`]),
//! - a **text flamegraph** — the span-path tree, depth-prefixed, siblings
//!   sorted by self-time in the table view ([`Profile::flame`]),
//! - **worker utilization** for the `defender-par` pool: busy fraction
//!   per `w<i>` lane, longest idle gap, and a fork-join critical-path
//!   estimate ([`Profile::workers`], [`Profile::critical_path_ns`]),
//! - a **profile sidecar** in the `BENCH_*.json` schema
//!   (`prof.self_ns.<span>`, `prof.calls.<span>`,
//!   `prof.worker_busy_ppm.w*`) so `defender bench diff` gates span-level
//!   regressions ([`sidecar_json`]).
//!
//! # Jobs invariance
//!
//! The pool's `par.worker` housekeeping spans exist only when worker
//! threads are spawned (`--jobs > 1`), so the analyzer **elides** them:
//! their children splice onto the enclosing path and the frames themselves
//! are redirected into the worker-utilization analysis. As a result the
//! span table and flamegraph shape are identical for every `--jobs N`,
//! and everything jobs-variant (`prof.worker_busy_ppm.w*`) is segregated
//! into the sidecar's `parallelism` section exactly like `par.tasks.w*`.
//!
//! # Examples
//!
//! ```
//! use defender_profile::{Profile, TraceInput};
//!
//! let trace = r#"{"traceEvents": [
//!     {"name": "solve", "ph": "B", "ts": 0.0, "pid": 1, "tid": 1},
//!     {"name": "pivot", "ph": "B", "ts": 10.0, "pid": 1, "tid": 1},
//!     {"name": "pivot", "ph": "E", "ts": 30.0, "pid": 1, "tid": 1},
//!     {"name": "solve", "ph": "E", "ts": 40.0, "pid": 1, "tid": 1}
//! ], "otherData": {"droppedEvents": 0}}"#;
//! let profile = Profile::build(&TraceInput::from_chrome_trace(trace).unwrap());
//! let solve = profile.spans.iter().find(|s| s.name == "solve").unwrap();
//! assert_eq!(solve.calls, 1);
//! assert_eq!(solve.total_ns, 40_000);
//! assert_eq!(solve.self_ns, 20_000); // 40µs minus the 20µs pivot child
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

mod analyze;
mod input;
mod render;
mod sidecar;

pub use analyze::{PathAgg, Profile, SpanAgg, WorkerStat};
pub use input::{Lane, LaneEvent, TraceInput};
pub use render::{format_ns, to_json, to_table};
pub use sidecar::sidecar_json;
