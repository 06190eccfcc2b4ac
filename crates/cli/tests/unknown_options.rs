//! Every command rejects an option it does not read: the run fails before
//! doing any work, with an error that names the option.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn unknown_options_fail_by_name_before_running() {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "defender-cli-unknown-options-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (command, option) in [
        (
            "generate --family cycle --n 5 --out c5 --bogus 3",
            "--bogus",
        ),
        ("value --graph c5.edges --k 1 --limt 5", "--limt"),
        ("sweep e1 --shards 2 --stall-timeout 5", "--stall-timeout"),
        ("sweep e1 --shards 2 --quiet", "--quiet"),
        ("sweep e1 --shards 2 --paralel 1", "--paralel"),
        ("serve --addr 127.0.0.1:0 --workers 2", "--workers"),
        (
            "serve --addr 127.0.0.1:0 --batch-window-ms 5",
            "--batch-window-ms",
        ),
        ("serve --addr 127.0.0.1:0 --jobs 2", "--jobs"),
        ("serve --addr 127.0.0.1:0 --deadline-ms 10", "--deadline-ms"),
        ("profile t.json --top 3 --limit 1", "--limit"),
        ("bench validate-trace t.json --threads 2", "--threads"),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_defender"))
            .current_dir(&dir)
            .args(command.split_whitespace())
            .output()
            .expect("run defender");
        assert!(!output.status.success(), "defender {command} succeeded");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown option `{option}`")),
            "defender {command}: {stderr}"
        );
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "defender {command} wrote output"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
