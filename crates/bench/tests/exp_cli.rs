//! The `exp` entry point's argument contract: a missing or unknown
//! experiment name, an unknown option and a `--shard` on an experiment
//! that does not window its corpus are usage errors (exit 2), caught
//! before anything runs.

use std::process::{Command, Output};

/// Runs `exp` with `args` in a fresh scratch directory.
fn exp(tag: &str, args: &[&str]) -> (Output, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("exp_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let output = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("exp runs");
    (output, dir)
}

#[test]
fn missing_or_unknown_names_exit_2_and_list_every_experiment() {
    for (tag, args) in [("none", &[][..]), ("unknown", &["e16"][..])] {
        let (output, dir) = exp(tag, args);
        assert_eq!(output.status.code(), Some(2), "exp {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let words: Vec<&str> = stderr.split(|c: char| !c.is_alphanumeric()).collect();
        for n in 1..=15 {
            let name = format!("e{n}");
            assert!(words.contains(&name.as_str()), "{name} missing: {stderr}");
        }
        assert!(words.contains(&"all"), "{stderr}");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn shard_on_an_unwindowed_experiment_exits_2_before_running() {
    for name in ["e9", "all"] {
        let (output, dir) = exp(name, &[name, "--shard", "1/3"]);
        assert_eq!(output.status.code(), Some(2), "exp {name} --shard 1/3");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("--shard") && stderr.contains("e1, e15"),
            "{stderr}"
        );
        assert!(output.stdout.is_empty(), "{name} must not run");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no sidecar");
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn unknown_options_exit_2_before_running() {
    let (output, dir) = exp("telemetry", &["e1", "--telemetry"]);
    assert_eq!(output.status.code(), Some(2), "exp e1 --telemetry");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown option `--telemetry`"), "{stderr}");
    assert!(output.stdout.is_empty(), "e1 must not run");
    let _ = std::fs::remove_dir_all(dir);
}
