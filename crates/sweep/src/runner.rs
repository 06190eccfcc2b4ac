//! Sweep orchestration: spawn shard workers, stream their telemetry,
//! checkpoint finished shards, merge sidecars.
//!
//! Shard `i` of `N` runs `exp <experiment> --shard i/N --telemetry` (plus
//! the forwarded `--jobs` and `--profile`) in its shard directory.
//!
//! One sweep = one output directory. Layout:
//!
//! ```text
//! <out_dir>/
//!   sweep.json            manifest (experiment, shards) — resume guard
//!   shard_<i>/
//!     BENCH_<exp>.json    the worker's own sidecar (written by the worker;
//!                         the worker runs with this directory as its cwd)
//!     console.log         non-telemetry stdout lines
//!     stderr.log          worker stderr
//!     PID                 worker pid (for kill-based smoke tests)
//!     DONE                checkpoint marker, written only after the
//!                         sidecar validated
//!   BENCH_<exp>.json      the merged sweep-level sidecar
//! ```
//!
//! The DONE marker is the checkpoint unit: a killed sweep re-invoked with
//! `--resume` re-runs exactly the shards without a marker, and because
//! each shard's counters depend only on its window, the merged output of
//! an interrupted-then-resumed sweep is byte-identical (counters object)
//! to an uninterrupted one.

use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use defender_bench::diff::Sidecar;

use crate::merge::merge_sidecars;
use crate::monitor::Monitor;
use crate::protocol::{parse_line, ShardEvent};

/// Configuration for one sweep run.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Experiment name (`e1`), passed to every worker as its first
    /// argument.
    pub experiment: String,
    /// Path to the `exp` worker binary.
    pub binary: PathBuf,
    /// Number of shards to partition the corpus into.
    pub shards: u64,
    /// Sweep output directory (created if absent).
    pub out_dir: PathBuf,
    /// Re-use checkpoints from a previous run in `out_dir`.
    pub resume: bool,
    /// Maximum concurrently running workers (`0` = all shards at once).
    pub parallel: usize,
    /// `--jobs` forwarded to every worker.
    pub jobs: Option<usize>,
    /// Forward `--profile` to workers (span profile in each shard's
    /// sidecar and stderr).
    pub profile: bool,
    /// Silence past this duration flags a shard as stalled.
    pub stall_timeout: Duration,
    /// Stop (without merging) after this many *newly* finished shards —
    /// deterministic interruption for checkpoint-resume tests.
    pub stop_after: Option<u64>,
    /// Suppress the live dashboard.
    pub quiet: bool,
}

impl SweepConfig {
    /// A config with the defaults the CLI exposes.
    #[must_use]
    pub fn new(experiment: &str, binary: PathBuf, shards: u64, out_dir: PathBuf) -> SweepConfig {
        SweepConfig {
            experiment: experiment.to_string(),
            binary,
            shards,
            out_dir,
            resume: false,
            parallel: 0,
            jobs: None,
            profile: false,
            stall_timeout: Duration::from_secs(10),
            stop_after: None,
            quiet: false,
        }
    }
}

/// What a sweep run produced.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Path of the merged sweep-level sidecar (absent when stopped early).
    pub merged_sidecar: Option<PathBuf>,
    /// Shards that finished during *this* run.
    pub completed: u64,
    /// Shards skipped because a checkpoint already covered them.
    pub resumed: u64,
    /// Whether `stop_after` ended the run before all shards finished.
    pub stopped_early: bool,
}

/// Messages the per-shard stdout reader threads send to the main loop.
enum Msg {
    Event(usize, ShardEvent),
    Console(usize, String),
    Eof,
}

/// One live worker.
struct Worker {
    shard: usize,
    child: std::process::Child,
}

/// Runs a sweep to completion (or to `stop_after`).
///
/// # Errors
///
/// Propagates spawn/IO failures, a resume manifest mismatch, worker
/// failures (non-zero exit or missing sidecar), and merge errors.
pub fn run_sweep(config: &SweepConfig) -> Result<SweepOutcome, String> {
    if config.shards == 0 {
        return Err("a sweep needs at least 1 shard".to_string());
    }
    // Workers run with their shard directory as cwd, so a relative
    // binary path would resolve against the wrong directory — pin it
    // to an absolute path up front.
    let binary = std::fs::canonicalize(&config.binary)
        .map_err(|e| format!("worker binary {}: {e}", config.binary.display()))?;
    let config = &SweepConfig {
        binary,
        ..config.clone()
    };
    std::fs::create_dir_all(&config.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", config.out_dir.display()))?;
    check_manifest(config)?;
    defender_obs::enable();
    defender_obs::gauge!("sw.shards").set(config.shards);

    let shard_count = usize::try_from(config.shards).map_err(|_| "too many shards")?;
    let mut monitor = Monitor::new(&config.experiment, config.shards, config.stall_timeout);
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut resumed = 0u64;
    for shard in 0..shard_count {
        if config.resume && checkpoint_valid(&shard_dir(config, shard)) {
            monitor.mark_resumed(shard);
            resumed += 1;
        } else {
            pending.push_back(shard);
        }
    }
    if resumed > 0 {
        defender_obs::counter!("sw.resumed").add(resumed);
    }

    let parallel = if config.parallel == 0 {
        shard_count.max(1)
    } else {
        config.parallel
    };
    let (tx, rx) = mpsc::channel::<Msg>();
    let mut workers: Vec<Worker> = Vec::new();
    let mut readers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut consoles: Vec<Option<std::fs::File>> = (0..shard_count).map(|_| None).collect();
    let mut completed = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut stopped_early = false;
    let mut painter = Painter::new(config.quiet);

    loop {
        while workers.len() < parallel && !stopped_early {
            let Some(shard) = pending.pop_front() else {
                break;
            };
            let (worker, reader, console) = spawn_shard(config, shard, &tx)?;
            monitor.mark_spawned(shard, Instant::now());
            workers.push(worker);
            readers.push(reader);
            consoles[shard] = Some(console);
        }
        if workers.is_empty() && (pending.is_empty() || stopped_early) {
            break;
        }

        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(Msg::Event(shard, event)) => monitor.apply(shard, &event, Instant::now()),
            Ok(Msg::Console(shard, line)) => {
                if let Some(file) = consoles.get_mut(shard).and_then(Option::as_mut) {
                    let _ = writeln!(file, "{line}");
                }
            }
            Ok(Msg::Eof) | Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {}
        }

        let mut still_running = Vec::new();
        for mut worker in workers {
            match worker.child.try_wait() {
                Ok(Some(status)) => {
                    let shard = worker.shard;
                    let dir = shard_dir(config, shard);
                    if status.success() && seal_checkpoint(&dir).is_ok() {
                        monitor.mark_done(shard);
                        completed += 1;
                        if config.stop_after.is_some_and(|k| completed >= k) {
                            stopped_early = true;
                        }
                    } else {
                        monitor.mark_failed(shard);
                        failures.push(format!(
                            "shard {shard} failed ({status}); see {}",
                            dir.join("stderr.log").display()
                        ));
                    }
                }
                Ok(None) => still_running.push(worker),
                Err(e) => {
                    monitor.mark_failed(worker.shard);
                    failures.push(format!("shard {}: wait failed: {e}", worker.shard));
                }
            }
        }
        workers = still_running;
        if stopped_early {
            // Deterministic-interruption mode: abandon live workers so the
            // resume path re-runs them from scratch.
            for worker in &mut workers {
                let _ = worker.child.kill();
                let _ = worker.child.wait();
            }
            workers.clear();
        }

        monitor.tick(Instant::now());
        painter.maybe_draw(&monitor);
    }
    drop(tx);
    for reader in readers {
        let _ = reader.join();
    }
    painter.finish(&monitor);

    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    if stopped_early {
        return Ok(SweepOutcome {
            merged_sidecar: None,
            completed,
            resumed,
            stopped_early: true,
        });
    }

    let merged_sidecar = Some(merge_shards(config, shard_count)?);
    Ok(SweepOutcome {
        merged_sidecar,
        completed,
        resumed,
        stopped_early: false,
    })
}

/// The directory owned by one shard.
fn shard_dir(config: &SweepConfig, shard: usize) -> PathBuf {
    config.out_dir.join(format!("shard_{shard}"))
}

/// Writes or verifies the sweep manifest, so `--resume` cannot silently
/// mix checkpoints from a different experiment or shard width.
fn check_manifest(config: &SweepConfig) -> Result<(), String> {
    let path = config.out_dir.join("sweep.json");
    let mut manifest = defender_obs::json::JsonObject::new();
    manifest.field_str("experiment", &config.experiment);
    manifest.field_u64("shards", config.shards);
    let rendered = manifest.finish() + "\n";
    if config.resume && path.exists() {
        let prior = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        if prior != rendered {
            return Err(format!(
                "resume mismatch in {}: manifest records {} but this run asked for {}",
                path.display(),
                prior.trim(),
                rendered.trim()
            ));
        }
        return Ok(());
    }
    std::fs::write(&path, rendered).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Whether a shard directory holds a complete checkpoint: DONE marker
/// plus a parseable sidecar.
fn checkpoint_valid(dir: &Path) -> bool {
    dir.join("DONE").exists() && find_sidecar(dir).is_some()
}

/// The shard's `BENCH_*.json`, if exactly one exists and parses.
fn find_sidecar(dir: &Path) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut found = None;
    for entry in entries.flatten() {
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            if found.is_some() {
                return None;
            }
            found = Some(entry.path());
        }
    }
    let path = found?;
    Sidecar::load(&path).ok().map(|_| path)
}

/// Validates the shard's sidecar and writes the DONE marker.
fn seal_checkpoint(dir: &Path) -> Result<(), String> {
    let sidecar = find_sidecar(dir).ok_or("no valid sidecar")?;
    std::fs::write(dir.join("DONE"), "ok\n")
        .map_err(|e| format!("cannot write DONE next to {}: {e}", sidecar.display()))?;
    Ok(())
}

/// Spawns one shard worker with its stdout reader thread. The worker's
/// cwd is its shard directory, so its `BENCH_*.json` lands there.
fn spawn_shard(
    config: &SweepConfig,
    shard: usize,
    tx: &mpsc::Sender<Msg>,
) -> Result<(Worker, std::thread::JoinHandle<()>, std::fs::File), String> {
    let dir = shard_dir(config, shard);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // A re-run (resume after interruption) must not inherit stale output.
    for stale in ["DONE", "PID"] {
        let _ = std::fs::remove_file(dir.join(stale));
    }
    if let Some(old) = find_sidecar(&dir) {
        let _ = std::fs::remove_file(old);
    }
    let stderr = std::fs::File::create(dir.join("stderr.log"))
        .map_err(|e| format!("cannot create stderr.log in {}: {e}", dir.display()))?;
    let console = std::fs::File::create(dir.join("console.log"))
        .map_err(|e| format!("cannot create console.log in {}: {e}", dir.display()))?;
    let mut command = std::process::Command::new(&config.binary);
    command
        .current_dir(&dir)
        .arg(&config.experiment)
        .arg("--shard")
        .arg(format!("{shard}/{}", config.shards))
        .arg("--telemetry")
        .stdin(std::process::Stdio::null())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::from(stderr));
    if let Some(jobs) = config.jobs {
        command.arg("--jobs").arg(jobs.to_string());
    }
    if config.profile {
        command.arg("--profile");
    }
    let mut child = command.spawn().map_err(|e| {
        format!(
            "cannot spawn {} for shard {shard}: {e}",
            config.binary.display()
        )
    })?;
    let _ = std::fs::write(dir.join("PID"), format!("{}\n", child.id()));
    let stdout = child
        .stdout
        .take()
        .ok_or_else(|| format!("no stdout pipe for shard {shard}"))?;
    let tx = tx.clone();
    let reader = std::thread::Builder::new()
        .name(format!("shard-{shard}-reader"))
        .spawn(move || {
            let buffered = std::io::BufReader::new(stdout);
            for line in buffered.lines() {
                let Ok(line) = line else { break };
                let msg = match parse_line(&line) {
                    Some(event) => Msg::Event(shard, event),
                    None => Msg::Console(shard, line),
                };
                if tx.send(msg).is_err() {
                    break;
                }
            }
            let _ = tx.send(Msg::Eof);
        })
        .map_err(|e| format!("cannot spawn reader thread for shard {shard}: {e}"))?;
    Ok((Worker { shard, child }, reader, console))
}

/// Loads every shard sidecar in shard order, merges them, and writes the
/// sweep-level `BENCH_*.json` into the output directory.
fn merge_shards(config: &SweepConfig, shard_count: usize) -> Result<PathBuf, String> {
    let mut sidecars = Vec::with_capacity(shard_count);
    for shard in 0..shard_count {
        let dir = shard_dir(config, shard);
        let path = find_sidecar(&dir).ok_or_else(|| {
            format!(
                "shard {shard} finished without a sidecar in {}",
                dir.display()
            )
        })?;
        sidecars.push(Sidecar::load(&path)?);
    }
    let merged = merge_sidecars(&sidecars)?;
    let path = config
        .out_dir
        .join(format!("BENCH_{}.json", sidecars[0].experiment));
    std::fs::write(&path, merged + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

/// Stderr dashboard painter: in-place ANSI redraw on a terminal, silent
/// otherwise (state transitions still reach the user through the final
/// summary, and CI logs stay readable).
struct Painter {
    quiet: bool,
    ansi: bool,
    last_height: usize,
    last_draw: Option<Instant>,
}

impl Painter {
    fn new(quiet: bool) -> Painter {
        use std::io::IsTerminal;
        Painter {
            quiet,
            ansi: std::io::stderr().is_terminal(),
            last_height: 0,
            last_draw: None,
        }
    }

    fn maybe_draw(&mut self, monitor: &Monitor) {
        if self.quiet || !self.ansi {
            return;
        }
        let due = self
            .last_draw
            .map_or(true, |at| at.elapsed() >= Duration::from_millis(250));
        if due {
            self.draw(monitor);
        }
    }

    fn draw(&mut self, monitor: &Monitor) {
        let rendered = monitor.render();
        let mut err = std::io::stderr().lock();
        if self.last_height > 0 {
            let _ = write!(err, "\x1b[{}A\x1b[J", self.last_height);
        }
        let _ = err.write_all(rendered.as_bytes());
        let _ = err.flush();
        self.last_height = rendered.lines().count();
        self.last_draw = Some(Instant::now());
    }

    fn finish(&mut self, monitor: &Monitor) {
        if self.quiet {
            return;
        }
        if self.ansi {
            self.draw(monitor);
        } else {
            let _ = write!(std::io::stderr().lock(), "{}", monitor.render());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_validate_and_default() {
        let config = SweepConfig::new("e1", PathBuf::from("/bin/false"), 0, PathBuf::from("/tmp"));
        assert!(run_sweep(&config).is_err(), "0 shards rejected");
        let config = SweepConfig::new("e1", PathBuf::from("x"), 3, PathBuf::from("y"));
        assert_eq!(config.parallel, 0, "0 = all shards at once");
        assert!(!config.resume);
        assert_eq!(config.stall_timeout, Duration::from_secs(10));
    }

    #[test]
    fn manifest_guards_resume_shape() {
        let dir = std::env::temp_dir().join(format!("sweep-manifest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut config = SweepConfig::new("e1", PathBuf::from("x"), 3, dir.clone());
        check_manifest(&config).unwrap();
        config.resume = true;
        assert!(check_manifest(&config).is_ok(), "same shape resumes");
        config.shards = 4;
        let err = check_manifest(&config).unwrap_err();
        assert!(err.contains("resume mismatch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_need_marker_and_sidecar() {
        let dir = std::env::temp_dir().join(format!("sweep-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert!(!checkpoint_valid(&dir), "empty dir");
        std::fs::write(dir.join("DONE"), "ok\n").unwrap();
        assert!(!checkpoint_valid(&dir), "marker without sidecar");
        std::fs::write(
            dir.join("BENCH_e1.json"),
            r#"{"experiment": "e1", "phases": [], "counters": {"a": 1}}"#,
        )
        .unwrap();
        assert!(checkpoint_valid(&dir), "marker + sidecar");
        std::fs::write(dir.join("BENCH_e1_again.json"), "{}").unwrap();
        assert!(!checkpoint_valid(&dir), "ambiguous sidecars rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
