//! `defender-par` — deterministic fork-join parallelism for the workspace.
//!
//! Every hot sweep in this repository — the E1–E15 experiment suite,
//! exhaustive payoff-table construction, support enumeration — is an
//! embarrassingly parallel loop over independent cells. This crate is the
//! one primitive they all share: a zero-dependency, std-only scoped-thread
//! work pool ([`std::thread::scope`]) whose contract is **determinism
//! first, speed second**:
//!
//! - **index-ordered merge**: [`par_map`] / [`par_for_indexed`] return
//!   results in input order regardless of which worker computed what, so
//!   output is byte-identical for any `--jobs N` (including 1);
//! - **dynamic scheduling**: workers pull the next index from a shared
//!   atomic cursor, so heterogeneous tasks (LP solves of varying size)
//!   balance without tuning — scheduling order is *not* deterministic,
//!   only results are, which is why per-worker task counts live in the
//!   segregated `par.*` metric namespace (see below);
//! - **inline degenerate path**: with one job, one item, or when called
//!   from inside a worker ([`is_worker`]), the closure runs on the calling
//!   thread with no spawn at all — nested parallelism is rejected rather
//!   than oversubscribing the pool;
//! - **panic propagation**: a panicking task aborts the pool and the first
//!   panic payload (in worker order) is resumed on the caller, so
//!   experiment assertions fail the run exactly as they do sequentially;
//! - **observability**: each `par_map` records the configured width in the
//!   `par.jobs` gauge and per-worker task counts in `par.tasks.w<i>`
//!   counters, and every worker wraps its task loop in a `par.worker`
//!   span, so `--trace` timelines show one balanced lane per worker;
//! - **counting scopes**: called inside [`defender_obs::captured`], the
//!   workers count their tasks' ticks into the caller's scope, so the
//!   scope returns the same deltas at every width.
//!
//! The `par.*` namespace is an **execution-shape record**, not algorithm
//! work: it legitimately differs between `--jobs 1` and `--jobs 4` (and,
//! for the per-worker split, between two runs at the same width). It
//! therefore never enters a counting scope, and consumers that promise
//! jobs-invariant output — the `BENCH_*.json` sidecars — segregate it
//! from the deterministic counter registry.
//!
//! # Examples
//!
//! ```
//! defender_par::set_jobs(4);
//! let squares = defender_par::par_for_indexed(16, |i| i * i);
//! assert_eq!(squares, (0..16).map(|i| i * i).collect::<Vec<_>>());
//! let lens = defender_par::par_map(&["a", "bb", "ccc"], |s| s.len());
//! assert_eq!(lens, vec![1, 2, 3]);
//! # defender_par::set_jobs(1);
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

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Global pool width; 0 means "unset, use [`available_jobs`]". A config
/// cell that publishes no data, so `Relaxed` suffices.
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// The hardware's advertised parallelism (at least 1).
#[must_use]
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Sets the process-wide pool width (clamped to at least 1).
///
/// Affects only *how* subsequent [`par_map`] calls execute, never what
/// they return — results are identical for every width by construction.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The current pool width: the last [`set_jobs`] value, or
/// [`available_jobs`] when never set.
#[must_use]
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => available_jobs(),
        n => n,
    }
}

thread_local! {
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Whether the current thread is a pool worker. Inside a worker, nested
/// [`par_map`] calls run inline instead of spawning a second scope.
#[must_use]
pub fn is_worker() -> bool {
    IN_POOL.with(Cell::get)
}

/// The per-worker task counter `par.tasks.w<i>`. Worker identities are
/// per-call spawn indices, so counts aggregate across calls; the handles
/// are leaked once per distinct index (bounded by the largest width ever
/// used) so they satisfy the registry's `'static` contract.
fn task_counter(worker: usize) -> &'static defender_obs::Metric {
    static CELLS: OnceLock<Mutex<Vec<&'static defender_obs::Metric>>> = OnceLock::new();
    let cells = CELLS.get_or_init(|| Mutex::new(Vec::new()));
    let mut cells = cells
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    while cells.len() <= worker {
        let name = format!("par.tasks.w{}", cells.len());
        cells.push(defender_obs::leaked_counter(name));
    }
    cells[worker]
}

/// Maps `f` over `0..n` and returns the results in index order.
///
/// Execution is spread over `min(jobs(), n)` scoped worker threads pulling
/// indices from a shared cursor; the merge is by index, so the returned
/// vector is identical for any pool width. Runs inline (no spawn) when the
/// effective width is 1 or when called from inside a worker.
///
/// # Panics
///
/// Re-raises the first panic (in worker order) raised by any task.
pub fn par_for_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let width = if is_worker() { 1 } else { jobs().min(n.max(1)) };
    defender_obs::gauge!("par.jobs").set(jobs() as u64);
    if width <= 1 {
        task_counter(0).add_unscoped(n as u64);
        return (0..n).map(f).collect();
    }
    // A caller inside a counting scope lends it to the workers: each
    // counts into a scope of its own, and the caller replays the deltas.
    let inherit = defender_obs::in_scope();
    let cursor = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..width)
            .map(|worker| {
                let f = &f;
                let cursor = &cursor;
                scope.spawn(move || {
                    IN_POOL.with(|flag| flag.set(true));
                    // Label the lane `w<i>` so trace consumers can merge
                    // a logical worker's stints across pool spawns (every
                    // scoped thread gets a fresh tid). Gated to avoid the
                    // allocation when nothing is recording.
                    if defender_obs::trace::enabled() {
                        defender_obs::trace::set_thread_label(&format!("w{worker}"));
                    }
                    let _lane = defender_obs::span!("par.worker");
                    let claim = || {
                        let mut out = Vec::new();
                        loop {
                            // Relaxed: the atomic RMW claims each index once,
                            // and the results join at thread exit.
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            out.push((i, f(i)));
                        }
                        out
                    };
                    let (out, deltas) = if inherit {
                        defender_obs::captured(claim)
                    } else {
                        (claim(), Vec::new())
                    };
                    task_counter(worker).add_unscoped(out.len() as u64);
                    (out, deltas)
                })
            })
            .collect();
        let mut parts = Vec::with_capacity(width);
        let mut first_panic = None;
        for handle in handles {
            match handle.join() {
                Ok((part, deltas)) => {
                    defender_obs::replay_counters(&deltas);
                    parts.push(part);
                }
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
        parts
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, r) in parts.into_iter().flatten() {
        debug_assert!(slots[i].is_none(), "index {i} computed twice");
        slots[i] = Some(r);
    }
    #[expect(
        clippy::expect_used,
        reason = "pool invariant: par_for_indexed covers 0..n exactly once"
    )]
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

/// Maps `f` over a slice and returns the results in input order.
///
/// See [`par_for_indexed`] for the execution and determinism contract.
///
/// # Panics
///
/// Re-raises the first panic (in worker order) raised by any task.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_for_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests mutate the process-global width; serialize them. Other
    /// crates' tests may race `set_jobs` freely — it only changes the
    /// execution shape, never results — but these tests assert on the
    /// width itself.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn results_are_index_ordered_for_any_width() {
        let _guard = lock();
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|v| v * v).collect();
        for width in [1, 2, 4, 9] {
            set_jobs(width);
            assert_eq!(par_map(&items, |v| v * v), expected, "width {width}");
            assert_eq!(
                par_for_indexed(items.len(), |i| items[i] * items[i]),
                expected,
                "width {width}"
            );
        }
        set_jobs(1);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let _guard = lock();
        set_jobs(4);
        assert_eq!(par_map::<u8, u8, _>(&[], |v| *v), Vec::<u8>::new());
        assert_eq!(par_for_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map(&[7u8], |v| *v + 1), vec![8]);
        set_jobs(1);
    }

    #[test]
    fn jobs_one_is_the_degenerate_inline_path() {
        let _guard = lock();
        set_jobs(1);
        let caller = std::thread::current().id();
        let ids = par_for_indexed(8, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller), "no threads spawned");
        assert!(!is_worker(), "the caller never becomes a worker");
    }

    #[test]
    fn set_jobs_clamps_zero_to_one() {
        let _guard = lock();
        set_jobs(0);
        assert_eq!(jobs(), 1);
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(1);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let _guard = lock();
        set_jobs(4);
        let result = std::panic::catch_unwind(|| {
            par_for_indexed(64, |i| {
                assert!(i != 13, "task 13 exploded");
                i
            })
        });
        let payload = result.expect_err("panic must cross the pool");
        let message = payload
            .downcast_ref::<&str>()
            .map(ToString::to_string)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("task 13 exploded"), "{message}");
        set_jobs(1);
        // The pool is reusable after a panic.
        assert_eq!(par_for_indexed(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker() {
        let _guard = lock();
        set_jobs(4);
        let nested: Vec<(bool, Vec<usize>)> = par_for_indexed(4, |_| {
            // The inner call must not spawn a second scope: it runs on
            // this worker thread, which is flagged as in-pool.
            let inner_on_worker = par_for_indexed(5, |j| (is_worker(), j * 2));
            (
                is_worker(),
                inner_on_worker
                    .into_iter()
                    .map(|(on_worker, v)| {
                        assert!(on_worker, "inner tasks stay on the worker");
                        v
                    })
                    .collect(),
            )
        });
        for (on_worker, inner) in nested {
            assert!(on_worker, "outer tasks run on workers");
            assert_eq!(inner, vec![0, 2, 4, 6, 8]);
        }
        set_jobs(1);
    }

    #[test]
    fn workers_label_their_trace_lanes() {
        let _guard = lock();
        defender_obs::trace::clear();
        defender_obs::trace::start();
        set_jobs(2);
        let _ = par_for_indexed(8, |i| i);
        defender_obs::trace::stop();
        let json = defender_obs::trace::chrome_trace_json();
        defender_obs::trace::clear();
        set_jobs(1);
        assert!(json.contains(r#""args": {"name": "w0"}"#), "{json}");
        assert!(json.contains(r#""args": {"name": "w1"}"#), "{json}");
        assert!(
            !defender_obs::trace::chrome_trace_json().contains("thread_name"),
            "clear() forgets the labels"
        );
    }

    #[test]
    fn counting_scopes_reach_the_workers_but_not_the_shape() {
        let _guard = lock();
        for width in [1, 4] {
            set_jobs(width);
            let (done, deltas) = defender_obs::captured(|| {
                par_for_indexed(40, |i| {
                    defender_obs::counter!("test.par.ticks").add(2);
                    i
                })
                .len()
            });
            assert_eq!(done, 40);
            assert_eq!(
                deltas,
                vec![("test.par.ticks".to_string(), 80)],
                "width {width}: every worker tick, and no par.* name"
            );
        }
        set_jobs(1);
    }

    #[test]
    fn metrics_record_the_parallel_shape() {
        let _guard = lock();
        defender_obs::reset();
        defender_obs::enable();
        set_jobs(3);
        let n = 40;
        let _ = par_for_indexed(n, |i| i);
        let snap = defender_obs::snapshot();
        assert_eq!(snap.gauge("par.jobs"), Some(3));
        let tasks: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("par.tasks.w"))
            .map(|&(_, v)| v)
            .sum();
        assert_eq!(tasks, n as u64, "every task attributed to some worker");
        defender_obs::disable();
        defender_obs::reset();
        set_jobs(1);
    }
}
