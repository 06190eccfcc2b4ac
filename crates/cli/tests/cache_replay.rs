//! A memo filled while instrumentation is off must replay the same solve
//! counters as a cold instrumented run: the cache's counting scope does
//! not depend on `--metrics`.

use std::path::{Path, PathBuf};
use std::process::Command;

use defender_obs::json::{self, JsonValue};

/// Runs `defender` in `dir` with the whitespace-separated `command`.
fn defender(dir: &Path, command: &str) {
    let output = Command::new(env!("CARGO_BIN_EXE_defender"))
        .current_dir(dir)
        .args(command.split_whitespace())
        .output()
        .expect("run defender");
    assert!(
        output.status.success(),
        "defender {command} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

/// The `lp.*`, `num.*` and `core.*` counters of a `--metrics-out` file.
fn solve_counters(path: &Path) -> Vec<(String, u64)> {
    let text = std::fs::read_to_string(path).expect("metrics file");
    let doc = json::parse(&text).expect("metrics json");
    doc.get("counters")
        .and_then(JsonValue::as_object)
        .expect("counters object")
        .iter()
        .filter(|(name, _)| ["lp.", "num.", "core."].iter().any(|p| name.starts_with(p)))
        .map(|(name, v)| (name.clone(), v.as_u64().expect("u64 counter")))
        .collect()
}

#[test]
fn a_memo_filled_without_metrics_replays_the_cold_deltas() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("defender-cli-cache-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    defender(&root, "generate --family petersen --out petersen.edges");
    let value = "value --graph petersen.edges --k 1 --cache";

    // Fill a memo with instrumentation off, then rerun it instrumented.
    defender(&root, &format!("{value} filled"));
    defender(&root, &format!("{value} filled --metrics-out warm.json"));
    // A cold instrumented run on a second fresh memo.
    defender(&root, &format!("{value} cold --metrics-out cold.json"));

    let cold = solve_counters(&root.join("cold.json"));
    let pivots = cold.iter().find(|(name, _)| name == "lp.simplex.pivots");
    assert!(
        pivots.is_some_and(|&(_, v)| v > 0),
        "the cold run solves: {cold:?}"
    );
    assert_eq!(solve_counters(&root.join("warm.json")), cold);
    let _ = std::fs::remove_dir_all(&root);
}
