//! Checkpoint-resume determinism: the merged `counters` object of a
//! sharded sweep is byte-identical to the single-process run — for every
//! shard width, and for a sweep killed after its first shard and then
//! resumed. This is the end-to-end version of the unit-level guarantees
//! in `defender_sweep::merge` and `defender_bench::shard`, driving the
//! real `exp e1` through the real runner.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use defender_sweep::{counters_object, SweepConfig};

fn worker_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_exp"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sweep-det-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn quiet_config(shards: u64, out_dir: PathBuf) -> SweepConfig {
    let mut config = SweepConfig::new("e1", worker_binary(), shards, out_dir);
    config.quiet = true;
    config
}

/// Runs a sweep and returns the merged sidecar's `counters` object text.
fn sweep_counters(config: &SweepConfig) -> String {
    let outcome = defender_sweep::run_sweep(config).expect("sweep runs");
    let path = outcome.merged_sidecar.expect("sweep merged");
    let text = std::fs::read_to_string(path).expect("merged sidecar readable");
    counters_object(&text)
        .expect("merged sidecar has a counters object")
        .to_string()
}

#[test]
fn merged_counters_match_the_unsharded_run_at_every_width() {
    // Ground truth: the worker run plainly, no sharding at all.
    let plain_dir = temp_dir("plain");
    std::fs::create_dir_all(&plain_dir).unwrap();
    let status = Command::new(worker_binary())
        .arg("e1")
        .current_dir(&plain_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("worker binary runs");
    assert!(status.success(), "unsharded run failed: {status}");
    let plain = std::fs::read_to_string(plain_dir.join("BENCH_e1_pure_frontier.json"))
        .expect("plain sidecar written");
    let plain_counters = counters_object(&plain)
        .expect("plain sidecar has counters")
        .to_string();

    let one_dir = temp_dir("w1");
    let three_dir = temp_dir("w3");
    let twenty_dir = temp_dir("w20");
    let one = sweep_counters(&quiet_config(1, one_dir.clone()));
    let three = sweep_counters(&quiet_config(3, three_dir.clone()));
    // More shards than the 17-family corpus: several windows are empty,
    // those workers write sidecars with an empty counters object, and the
    // merge must still land on the plain run's bytes.
    let twenty = sweep_counters(&quiet_config(20, twenty_dir.clone()));

    assert_eq!(one, plain_counters, "--shards 1 vs plain run");
    assert_eq!(three, plain_counters, "--shards 3 vs plain run");
    assert_eq!(
        twenty, plain_counters,
        "--shards 20 (wider than the corpus) vs plain run"
    );

    for dir in [plain_dir, one_dir, three_dir, twenty_dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn killed_then_resumed_sweeps_merge_byte_identically() {
    let out_dir = temp_dir("resume");

    // Phase 1: run shard-by-shard (--parallel 1) and stop after the first
    // newly finished shard — the runner kills any live worker and exits
    // without merging, exactly like a Ctrl-C mid-sweep.
    let mut interrupted = quiet_config(3, out_dir.clone());
    interrupted.parallel = 1;
    interrupted.stop_after = Some(1);
    interrupted.stall_timeout = Duration::from_secs(60);
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
    let mut resumed = quiet_config(3, out_dir.clone());
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
    let uninterrupted = sweep_counters(&quiet_config(3, control_dir.clone()));
    assert_eq!(resumed_counters, uninterrupted);

    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_dir_all(&control_dir);
}

#[test]
fn resume_with_a_different_shape_is_rejected() {
    let out_dir = temp_dir("shape");
    let first = quiet_config(2, out_dir.clone());
    defender_sweep::run_sweep(&first).expect("2-shard sweep runs");
    let mut reshaped = quiet_config(3, out_dir.clone());
    reshaped.resume = true;
    let err = defender_sweep::run_sweep(&reshaped).expect_err("shape change rejected");
    assert!(err.contains("resume mismatch"), "{err}");
    let _ = std::fs::remove_dir_all(&out_dir);
}
