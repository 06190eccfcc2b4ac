//! Experiment harness for the reproduction.
//!
//! The paper is pure theory, so "tables and figures" are its theorems;
//! every module under [`experiments`] regenerates one of them empirically
//! (see DESIGN.md §4 for the index and EXPERIMENTS.md for recorded
//! outcomes). The `exp` binary runs one of them by name (`exp e1`) or
//! all of them in order (`exp all`) through [`experiment_main`].

pub mod cache;
pub mod diff;
pub mod experiments;
pub mod report;
pub mod shard;
pub mod timing;

pub use report::{RunReport, Table};
pub use timing::{linear_fit, median_time};

use std::sync::atomic::{AtomicBool, Ordering};

/// Whether `--profile` was passed to the running `exp`.
/// Consulted by [`RunReport::harvest_and_write`] (append the in-process
/// profile to the sidecar) and by the heartbeat reporters in the sweep
/// loops.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Whether the current experiment run was started with `--profile`.
#[must_use]
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Shared entry point of the `exp` binary: parses the flags all
/// experiments share, runs experiment `name` (`run`), and exports
/// artifacts.
///
/// Supported flags:
///
/// - `--trace <FILE>` — record an event-level timeline of the run and
///   write it as Chrome trace-event JSON (open in Perfetto or
///   `chrome://tracing`).
/// - `--jobs <N>` — worker-pool width for the parallel inner loops
///   (default: the machine's available parallelism). Results are
///   byte-identical for every `N`; only wall-clock time changes.
/// - `--profile` — record the trace in-process, harvest it with
///   `defender-profile` at the end of the run, append a `profile`
///   section (`prof.calls.*` / `prof.self_ns.*`) to the `BENCH_*.json`
///   sidecar, and emit live heartbeat lines from the sweep loops.
///   Composes with `--trace`: one recording serves both.
/// - `--shard <i>/<N>` — run only shard `i` of an `N`-way corpus
///   partition (see [`shard::window`]); used by `defender sweep` to
///   split one experiment across worker processes. Merged counters over
///   all `N` shards are byte-identical to a single-process run. Only the
///   experiments in [`shard::WINDOWED`] accept it.
/// - `--cache <DIR>` — memoize exact equilibrium solves keyed by the
///   instance's canonical graph form (see `defender-cache`), persisting
///   the memo as a JSON sidecar in `DIR`. A warm cache makes repeat runs
///   near-instant while main-section counters stay byte-identical to the
///   cold run (delta replay); the cache's own `cache.*` counters land in
///   the sidecar's run-variant section.
/// - `--telemetry` — stream NDJSON telemetry events on stdout
///   (`start`/`window`/`phase`/`instance`/`hb`/`snapshot`/`summary`,
///   see `defender_obs::telemetry`) so a parent sweep runner can render
///   live per-shard progress and health.
///
/// Exits with status 2 on a usage or export error (experiment assertion
/// failures panic, as before).
pub fn experiment_main(name: &str, flags: &[String], run: impl FnOnce()) {
    if let Err(message) = experiment_main_with(name, flags, run) {
        eprintln!("error: {message}");
        std::process::exit(2);
    }
}

fn experiment_main_with(name: &str, argv: &[String], run: impl FnOnce()) -> Result<(), String> {
    let mut trace_path: Option<std::path::PathBuf> = None;
    let mut profile = false;
    let mut telemetry = false;
    let mut shard_spec: Option<(u64, u64)> = None;
    let mut iter = argv.iter();
    while let Some(token) = iter.next() {
        match token.as_str() {
            "--trace" => {
                let value = iter.next().ok_or("option `--trace` needs a value")?;
                trace_path = Some(std::path::PathBuf::from(value));
            }
            "--jobs" => {
                let value = iter.next().ok_or("option `--jobs` needs a value")?;
                let n: usize = value.parse().map_err(|_| {
                    format!("option `--jobs` needs a positive integer, got `{value}`")
                })?;
                if n == 0 {
                    return Err("option `--jobs` needs a positive integer, got `0`".to_string());
                }
                defender_par::set_jobs(n);
            }
            "--cache" => {
                let value = iter.next().ok_or("option `--cache` needs a value")?;
                cache::set_cache_dir(std::path::Path::new(value))?;
            }
            "--profile" => profile = true,
            "--telemetry" => telemetry = true,
            "--shard" => {
                let value = iter.next().ok_or("option `--shard` needs a value")?;
                shard_spec = Some(shard::parse_shard_flag(value)?);
            }
            other => {
                return Err(format!(
                    "unknown option `{other}` (supported: --trace <FILE>, --jobs <N>, \
                     --profile, --shard <i>/<N>, --telemetry, --cache <DIR>)"
                ))
            }
        }
    }
    PROFILING.store(profile, Ordering::Relaxed);
    if let Some((index, total)) = shard_spec {
        if !shard::WINDOWED.contains(&name) {
            return Err(format!(
                "experiment `{name}` does not window its corpus, so `--shard` would run \
                 all of it in every shard (shardable: {})",
                shard::WINDOWED.join(", ")
            ));
        }
        shard::set_shard(index, total)?;
    }
    if telemetry {
        defender_obs::telemetry::enable();
    }
    if trace_path.is_some() || profile {
        defender_obs::trace::start();
    }
    let heartbeat = telemetry.then(spawn_heartbeat);
    defender_obs::telemetry::Event::new("start")
        .u64("pid", u64::from(std::process::id()))
        .emit();
    run();
    if let Some(handle) = heartbeat {
        handle.stop();
    }
    cache::persist()?;
    defender_obs::telemetry::Event::new("summary")
        .bool("ok", true)
        .u64("elapsed_ns", defender_obs::trace::elapsed_ns())
        .emit();
    defender_obs::telemetry::disable();
    if let Some(path) = trace_path {
        defender_obs::trace::stop();
        defender_obs::trace::write_chrome_trace(&path)
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
        eprintln!("wrote trace {}", path.display());
    } else if profile {
        defender_obs::trace::stop();
    }
    Ok(())
}

/// Handle for the `--telemetry` heartbeat thread. Stopping drops the
/// sender, which wakes the thread mid-wait, and joins it, so the last
/// `hb`/`snapshot` pair never interleaves with the `summary` event and
/// the run never waits out a heartbeat interval.
struct HeartbeatHandle {
    stop: std::sync::mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl HeartbeatHandle {
    fn stop(self) {
        drop(self.stop);
        let _ = self.thread.join();
    }
}

/// Interval between liveness heartbeats on the telemetry stream. Half a
/// second keeps the parent dashboard fresh while staying far under any
/// sane stall-detection timeout.
const HEARTBEAT_INTERVAL: std::time::Duration = std::time::Duration::from_millis(500);

/// Spawns the `--telemetry` heartbeat thread: every [`HEARTBEAT_INTERVAL`]
/// it emits an `hb` event (liveness) followed by a `snapshot` event
/// carrying the cumulative obs counter totals, so the parent sweep runner
/// can detect stalls even while the experiment is deep inside one long
/// instance.
fn spawn_heartbeat() -> HeartbeatHandle {
    let start = std::time::Instant::now();
    let (stop, stopped) = std::sync::mpsc::channel::<()>();
    let thread = std::thread::Builder::new()
        .name("telemetry-hb".to_string())
        .spawn(move || {
            while stopped.recv_timeout(HEARTBEAT_INTERVAL)
                == Err(std::sync::mpsc::RecvTimeoutError::Timeout)
            {
                defender_obs::telemetry::Event::new("hb")
                    .u64("elapsed_ns", start.elapsed().as_nanos() as u64)
                    .emit();
                defender_obs::telemetry::snapshot_event(&defender_obs::snapshot()).emit();
            }
        })
        .expect("spawn telemetry heartbeat thread");
    HeartbeatHandle { stop, thread }
}

/// Serializes unit tests that mutate the process-global shard/telemetry
/// state (the statics in [`shard`] and `defender_obs::telemetry`).
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn jobs_flag_sets_the_pool_width() {
        let mut ran = false;
        experiment_main_with("e1", &args(&["--jobs", "3"]), || {
            ran = true;
            assert_eq!(defender_par::jobs(), 3);
        })
        .unwrap();
        assert!(ran);
        defender_par::set_jobs(1);
    }

    #[test]
    fn jobs_flag_rejects_garbage() {
        let run = || panic!("must not run");
        assert!(experiment_main_with("e1", &args(&["--jobs"]), run).is_err());
        assert!(experiment_main_with("e1", &args(&["--jobs", "zero"]), run).is_err());
        assert!(experiment_main_with("e1", &args(&["--jobs", "0"]), run).is_err());
        assert!(experiment_main_with("e1", &args(&["--bogus"]), run).is_err());
    }

    #[test]
    fn shard_flag_declares_the_window() {
        let _guard = test_lock();
        let mut seen = None;
        experiment_main_with("e1", &args(&["--shard", "1/3"]), || {
            seen = shard::shard();
        })
        .unwrap();
        assert_eq!(seen, Some((1, 3)));
        shard::clear_shard();
        let run = || panic!("must not run");
        assert!(experiment_main_with("e1", &args(&["--shard"]), run).is_err());
        assert!(experiment_main_with("e1", &args(&["--shard", "3/3"]), run).is_err());
        assert!(experiment_main_with("e1", &args(&["--shard", "x"]), run).is_err());
    }

    #[test]
    fn cache_flag_installs_and_persists_the_memo() {
        let _guard = test_lock();
        cache::clear_cache();
        let dir = std::env::temp_dir().join(format!("bench-cache-flag-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut installed = false;
        experiment_main_with("e1", &args(&["--cache", dir.to_str().unwrap()]), || {
            installed = cache::handle().is_some();
        })
        .unwrap();
        assert!(installed, "cache installed during the run");
        assert!(
            dir.join(defender_cache::SIDECAR_FILE).exists(),
            "sidecar persisted after the run"
        );
        cache::clear_cache();
        let run = || panic!("must not run");
        assert!(experiment_main_with("e1", &args(&["--cache"]), run).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_flag_gates_the_event_stream() {
        let _guard = test_lock();
        let mut during = false;
        let started = std::time::Instant::now();
        experiment_main_with("e1", &args(&["--telemetry", "--shard", "0/2"]), || {
            during = defender_obs::telemetry::enabled();
        })
        .unwrap();
        assert!(
            started.elapsed() < HEARTBEAT_INTERVAL,
            "stopping the heartbeat must not wait out its interval"
        );
        assert!(during, "telemetry on during the run");
        assert!(
            !defender_obs::telemetry::enabled(),
            "telemetry off after the run"
        );
        shard::clear_shard();
    }

    #[test]
    fn profile_flag_starts_tracing_and_sets_the_gate() {
        let mut observed = (false, false);
        experiment_main_with("e1", &args(&["--profile"]), || {
            observed = (profiling_enabled(), defender_obs::trace::enabled());
        })
        .unwrap();
        assert_eq!(observed, (true, true), "gate + recording during run");
        assert!(
            !defender_obs::trace::enabled(),
            "recording stops after the run"
        );
        PROFILING.store(false, Ordering::Relaxed);
        defender_obs::trace::clear();
        experiment_main_with("e1", &args(&[]), || {
            assert!(!profiling_enabled());
        })
        .unwrap();
    }
}
