//! The `exp` entry point's argument contract: a missing or unknown
//! experiment name and an unknown option are usage errors (exit 2),
//! caught before anything runs.

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
fn unknown_options_exit_2_before_running() {
    for (tag, args) in [
        ("telemetry", &["e1", "--telemetry"][..]),
        ("shard", &["e1", "--shard", "0/2"][..]),
        ("profile", &["e1", "--profile"][..]),
    ] {
        let (output, dir) = exp(tag, args);
        assert_eq!(output.status.code(), Some(2), "exp {args:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let option = args[1];
        assert!(
            stderr.contains(&format!("unknown option `{option}`")),
            "{stderr}"
        );
        assert!(output.stdout.is_empty(), "exp {args:?} must not run");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no sidecar");
        let _ = std::fs::remove_dir_all(dir);
    }
}
