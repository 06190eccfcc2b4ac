//! Checkpoint-resume determinism: the merged `counters` object of a
//! sharded sweep is byte-identical to the single-process run — for every
//! shard width, and for a sweep killed after its first shard and then
//! resumed. This is the end-to-end version of the unit-level guarantees
//! in `defender_sweep::merge` and `defender_bench::shard`, driving the
//! real `exp` through the real runner.

use std::path::PathBuf;
use std::process::Command;

use defender_bench::shard::WINDOWED;
use defender_sweep::{counters_object, SweepConfig};

fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_exp"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn e1_config(shards: u64, out_dir: PathBuf) -> SweepConfig {
    SweepConfig::new("e1", worker_binary(), shards, out_dir)
}

/// Runs a sweep and returns the merged sidecar's `counters` object text.
/// Every shard's `console.log` is its worker's stdout, so each starts
/// with the experiment's `== E<n>:` header.
fn sweep_counters(config: &SweepConfig) -> String {
    let outcome = defender_sweep::run_sweep(config).expect("sweep runs");
    let header = format!("== {}:", config.experiment.to_uppercase());
    for shard in 0..config.shards {
        let log = config
            .out_dir
            .join(format!("shard_{shard}"))
            .join("console.log");
        let text = std::fs::read_to_string(&log).expect("console.log written");
        assert!(text.starts_with(&header), "{}: {text:?}", log.display());
    }
    let path = outcome.merged_sidecar.expect("sweep merged");
    let text = std::fs::read_to_string(path).expect("merged sidecar readable");
    counters_object(&text)
        .expect("merged sidecar has a counters object")
        .to_string()
}

#[test]
fn merged_counters_match_the_unsharded_run_at_every_width() {
    for &experiment in WINDOWED {
        // Ground truth: the worker run plainly, no sharding at all.
        let plain_dir = temp_dir(&format!("{experiment}-plain"));
        std::fs::create_dir_all(&plain_dir).unwrap();
        let status = Command::new(worker_binary())
            .arg(experiment)
            .current_dir(&plain_dir)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .expect("worker binary runs");
        assert!(status.success(), "unsharded {experiment} failed: {status}");
        let sidecar = std::fs::read_dir(&plain_dir)
            .unwrap()
            .flatten()
            .map(|entry| entry.path())
            .find(|path| path.extension().is_some_and(|ext| ext == "json"))
            .expect("plain sidecar written");
        let plain = std::fs::read_to_string(sidecar).unwrap();
        let plain_counters = counters_object(&plain)
            .expect("plain sidecar has counters")
            .to_string();

        // 20 shards is wider than E1's 17-family corpus: several windows
        // are empty, those workers write sidecars with an empty counters
        // object, and the merge must still land on the plain run's bytes.
        for shards in [1, 3, 20] {
            let dir = temp_dir(&format!("{experiment}-w{shards}"));
            let config = SweepConfig::new(experiment, worker_binary(), shards, dir.clone());
            assert_eq!(
                sweep_counters(&config),
                plain_counters,
                "{experiment} --shards {shards} vs plain run"
            );
            let _ = std::fs::remove_dir_all(dir);
        }
        let _ = std::fs::remove_dir_all(plain_dir);
    }
}

#[test]
fn killed_then_resumed_sweeps_merge_byte_identically() {
    let out_dir = temp_dir("resume");

    // Phase 1: run shard-by-shard (--parallel 1) and stop after the first
    // newly finished shard — the runner kills any live worker and exits
    // without merging, exactly like a Ctrl-C mid-sweep.
    let mut interrupted = e1_config(3, out_dir.clone());
    interrupted.parallel = 1;
    interrupted.stop_after = Some(1);
    let outcome = defender_sweep::run_sweep(&interrupted).expect("interrupted run is not an error");
    assert!(outcome.stopped_early, "stop_after(1) interrupts the sweep");
    assert_eq!(outcome.completed, 1, "exactly one shard checkpointed");
    assert!(
        outcome.merged_sidecar.is_none(),
        "no merge after interruption"
    );
    assert!(
        out_dir.join("shard_0").join("DONE").exists(),
        "shard 0 sealed its checkpoint"
    );

    // Phase 2: resume. Shard 0 must be skipped, the rest re-run.
    let mut resumed = e1_config(3, out_dir.clone());
    resumed.resume = true;
    let outcome = defender_sweep::run_sweep(&resumed).expect("resume completes");
    assert_eq!(outcome.resumed, 1, "the checkpointed shard is skipped");
    assert_eq!(outcome.completed, 2, "the interrupted shards re-run");
    let path = outcome.merged_sidecar.expect("resume merges");
    let text = std::fs::read_to_string(path).expect("merged sidecar readable");
    let resumed_counters = counters_object(&text)
        .expect("counters present")
        .to_string();

    // The interrupted-then-resumed merge is byte-identical to an
    // uninterrupted 3-shard sweep.
    let control_dir = temp_dir("control");
    let uninterrupted = sweep_counters(&e1_config(3, control_dir.clone()));
    assert_eq!(resumed_counters, uninterrupted);

    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_dir_all(&control_dir);
}

#[test]
fn resume_with_a_different_shape_is_rejected() {
    let out_dir = temp_dir("shape");
    let first = e1_config(2, out_dir.clone());
    defender_sweep::run_sweep(&first).expect("2-shard sweep runs");
    let mut reshaped = e1_config(3, out_dir.clone());
    reshaped.resume = true;
    let err = defender_sweep::run_sweep(&reshaped).expect_err("shape change rejected");
    assert!(err.contains("resume mismatch"), "{err}");
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn a_shard_that_cannot_start_stops_the_ones_already_running() {
    let out_dir = temp_dir("spawn-error");
    std::fs::create_dir_all(&out_dir).unwrap();
    // Shard 1's directory is a regular file, so shard 1 cannot start
    // after shard 0 already has.
    std::fs::write(out_dir.join("shard_1"), "not a directory").unwrap();
    let config = SweepConfig::new("e15", worker_binary(), 2, out_dir.clone());
    let err = defender_sweep::run_sweep(&config).expect_err("shard 1 cannot start");
    assert!(err.contains("shard_1"), "{err}");
    // A worker left running would write its sidecar well within this.
    std::thread::sleep(std::time::Duration::from_secs(1));
    let leftovers: Vec<_> = std::fs::read_dir(out_dir.join("shard_0"))
        .unwrap()
        .flatten()
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("BENCH_"))
        .collect();
    assert!(leftovers.is_empty(), "shard 0 kept running: {leftovers:?}");
    let _ = std::fs::remove_dir_all(&out_dir);
}
