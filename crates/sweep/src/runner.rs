//! Sweep orchestration: spawn shard workers, wait for them, checkpoint
//! finished shards, merge sidecars.
//!
//! Shard `i` of `N` runs `exp <experiment> --shard i/N` (plus the
//! forwarded `--jobs` and `--profile`) in its shard directory. The runner
//! keeps at most `parallel` workers alive and reaps them with
//! `try_wait`, checking every [`POLL`].
//!
//! One sweep = one output directory. Layout:
//!
//! ```text
//! <out_dir>/
//!   sweep.json            manifest (experiment, shards) — resume guard
//!   shard_<i>/
//!     BENCH_<exp>.json    the worker's own sidecar (written by the worker;
//!                         the worker runs with this directory as its cwd)
//!     console.log         worker stdout
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

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use defender_bench::diff::Sidecar;

use crate::merge::merge_sidecars;

/// How long the runner sleeps when no worker has finished since its last
/// check: a shard's exit is noticed at most this late.
const POLL: Duration = Duration::from_millis(5);

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
    /// Stop (without merging) after this many *newly* finished shards —
    /// deterministic interruption for checkpoint-resume tests.
    pub stop_after: Option<u64>,
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
            stop_after: None,
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

/// One live worker.
struct Worker {
    shard: usize,
    child: Child,
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

    let shard_count = usize::try_from(config.shards).map_err(|_| "too many shards")?;
    let (sealed, pending): (Vec<usize>, Vec<usize>) = (0..shard_count)
        .partition(|&shard| config.resume && checkpoint_valid(&shard_dir(config, shard)));
    let resumed = sealed.len() as u64;
    let mut pending = pending.into_iter();

    let parallel = if config.parallel == 0 {
        shard_count
    } else {
        config.parallel
    };
    let mut workers: Vec<Worker> = Vec::new();
    let mut completed = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut stopped_early = false;

    loop {
        while workers.len() < parallel && !stopped_early {
            let Some(shard) = pending.next() else {
                break;
            };
            match spawn_shard(config, shard) {
                Ok(worker) => workers.push(worker),
                Err(e) => {
                    stop_all(&mut workers);
                    return Err(e);
                }
            }
        }
        if workers.is_empty() {
            break;
        }

        let live = workers.len();
        let mut still_running = Vec::with_capacity(live);
        for mut worker in workers {
            match worker.child.try_wait() {
                Ok(Some(status)) => {
                    let shard = worker.shard;
                    let dir = shard_dir(config, shard);
                    if status.success() && seal_checkpoint(&dir).is_ok() {
                        completed += 1;
                        if config.stop_after.is_some_and(|k| completed >= k) {
                            stopped_early = true;
                        }
                    } else {
                        failures.push(format!(
                            "shard {shard} failed ({status}); see {}",
                            dir.join("stderr.log").display()
                        ));
                    }
                }
                Ok(None) => still_running.push(worker),
                Err(e) => failures.push(format!("shard {}: wait failed: {e}", worker.shard)),
            }
        }
        workers = still_running;
        if stopped_early {
            // Deterministic-interruption mode: abandon live workers so the
            // resume path re-runs them from scratch.
            stop_all(&mut workers);
        } else if workers.len() == live {
            std::thread::sleep(POLL);
        }
    }

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

/// Kills and reaps every live worker, so none outlives the run.
fn stop_all(workers: &mut Vec<Worker>) {
    for worker in workers.iter_mut() {
        let _ = worker.child.kill();
        let _ = worker.child.wait();
    }
    workers.clear();
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

/// Spawns one shard worker. Its cwd is its shard directory, so its
/// `BENCH_*.json` lands there; its stdout goes to `console.log` and its
/// stderr to `stderr.log`.
fn spawn_shard(config: &SweepConfig, shard: usize) -> Result<Worker, String> {
    let dir = shard_dir(config, shard);
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    // A re-run (resume after interruption) must not inherit stale output.
    for stale in ["DONE", "PID"] {
        let _ = std::fs::remove_file(dir.join(stale));
    }
    if let Some(old) = find_sidecar(&dir) {
        let _ = std::fs::remove_file(old);
    }
    let log = |name: &str| {
        File::create(dir.join(name))
            .map_err(|e| format!("cannot create {name} in {}: {e}", dir.display()))
    };
    let mut command = Command::new(&config.binary);
    command
        .current_dir(&dir)
        .arg(&config.experiment)
        .arg("--shard")
        .arg(format!("{shard}/{}", config.shards))
        .stdin(Stdio::null())
        .stdout(log("console.log")?)
        .stderr(log("stderr.log")?);
    if let Some(jobs) = config.jobs {
        command.arg("--jobs").arg(jobs.to_string());
    }
    if config.profile {
        command.arg("--profile");
    }
    let child = command.spawn().map_err(|e| {
        format!(
            "cannot spawn {} for shard {shard}: {e}",
            config.binary.display()
        )
    })?;
    let _ = std::fs::write(dir.join("PID"), format!("{}\n", child.id()));
    Ok(Worker { shard, child })
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
