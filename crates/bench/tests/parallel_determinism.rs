//! Determinism under parallelism, enforced on the real `exp` binary: the
//! acceptance bar for the worker pool is that `--jobs N` never changes
//! what an experiment reports — only how fast it reports it.

use std::path::{Path, PathBuf};
use std::process::Command;

use defender_bench::diff::Sidecar;

/// Runs `exp` with `args` in a fresh scratch directory and returns
/// `(stdout bytes, scratch dir)`; panics on a non-zero exit.
fn run_in_scratch(tag: &str, args: &[&str]) -> (Vec<u8>, PathBuf) {
    let binary = env!("CARGO_BIN_EXE_exp");
    let dir = std::env::temp_dir().join(format!("defender_par_det_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let output = Command::new(binary)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("experiment binary runs");
    assert!(
        output.status.success(),
        "{binary} {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    (output.stdout, dir)
}

fn sidecar(dir: &Path, experiment: &str) -> Sidecar {
    Sidecar::load(&dir.join(format!("BENCH_{experiment}.json"))).expect("sidecar parses")
}

#[test]
fn e1_report_is_byte_identical_across_pool_widths() {
    let (stdout_1, dir_1) = run_in_scratch("e1_j1", &["e1", "--jobs", "1"]);
    let (stdout_4, dir_4) = run_in_scratch("e1_j4", &["e1", "--jobs", "4"]);
    assert_eq!(
        stdout_1, stdout_4,
        "stdout must be byte-identical for --jobs 1 vs --jobs 4"
    );
    let side_1 = sidecar(&dir_1, "e1_pure_frontier");
    let side_4 = sidecar(&dir_4, "e1_pure_frontier");
    // The harvested counter registry is jobs-invariant (the `par.*`
    // execution-shape record lives in the separate "parallelism" section,
    // which `Sidecar::parse` deliberately ignores).
    assert_eq!(side_1.counters, side_4.counters);
    // Same phases in the same order; wall times legitimately differ.
    let names = |s: &Sidecar| s.phases.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&side_1), names(&side_4));
    let _ = std::fs::remove_dir_all(dir_1);
    let _ = std::fs::remove_dir_all(dir_4);
}

#[test]
fn e15_sweep_is_byte_identical_across_pool_widths() {
    let (stdout_1, dir_1) = run_in_scratch("e15_j1", &["e15", "--jobs", "1"]);
    let (stdout_4, dir_4) = run_in_scratch("e15_j4", &["e15", "--jobs", "4"]);
    assert_eq!(stdout_1, stdout_4);
    assert_eq!(
        sidecar(&dir_1, "e15_value_atlas").counters,
        sidecar(&dir_4, "e15_value_atlas").counters
    );
    let _ = std::fs::remove_dir_all(dir_1);
    let _ = std::fs::remove_dir_all(dir_4);
}

#[test]
fn parallel_trace_from_the_binary_is_balanced() {
    let (_, dir) = run_in_scratch("e1_trace", &["e1", "--jobs", "4", "--trace", "trace.json"]);
    let text = std::fs::read_to_string(dir.join("trace.json")).expect("trace written");
    let check = defender_obs::trace::validate_chrome_trace(&text)
        .expect("multi-thread trace keeps per-thread stack discipline");
    assert!(check.events > 0);
    assert!(
        check.threads >= 2,
        "a --jobs 4 run must record worker lanes, saw {}",
        check.threads
    );
    let _ = std::fs::remove_dir_all(dir);
}
