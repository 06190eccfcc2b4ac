//! `defender bench` — performance-gate utilities over `BENCH_*.json`
//! sidecars and Chrome trace exports.
//!
//! ```text
//! defender bench diff <baseline.json> <current.json>
//! defender bench validate-trace <trace.json> [--min-threads 1] [--strict-drops]
//! ```
//!
//! `diff` exits with code 2 when any counter grows more than 20% or goes
//! missing, so CI can gate on it directly; it takes no options and never
//! judges the machine-sensitive phase wall times. `validate-trace` checks
//! that a `--trace` export is well-formed Chrome trace-event JSON with
//! balanced begin/end pairs; `--min-threads` additionally requires the
//! timeline to span at least that many threads (asserting a `--jobs N`
//! run really fanned out). A trace that dropped events (ring overflow)
//! gets a warning — and exit code 2 under `--strict-drops`, for runs
//! whose analysis must see the full timeline.

use std::path::Path;
use std::process::ExitCode;

use defender_bench::diff::{self, Sidecar};

use crate::args::{split_positionals, switches, Options};

const USAGE: &str = "usage:\n  \
    defender bench diff <baseline.json> <current.json>\n  \
    defender bench validate-trace <trace.json> [--min-threads 1] [--strict-drops]";

/// Dispatches the `bench` subcommands.
///
/// # Errors
///
/// Returns a usage error for unknown subcommands or malformed arguments,
/// and an I/O/parse error when an input file cannot be read.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let Some((sub, rest)) = argv.split_first() else {
        return Err(format!("`bench` needs a subcommand\n{USAGE}"));
    };
    match sub.as_str() {
        "diff" => run_diff(rest),
        "validate-trace" => run_validate_trace(rest),
        other => Err(format!("unknown bench subcommand `{other}`\n{USAGE}")),
    }
}

fn run_diff(argv: &[String]) -> Result<ExitCode, String> {
    if let Some(option) = argv.iter().find(|token| token.starts_with("--")) {
        return Err(format!(
            "`bench diff` takes no options, got `{option}`\n{USAGE}"
        ));
    }
    let [baseline_path, current_path] = argv else {
        return Err(format!(
            "`bench diff` needs exactly two sidecar files\n{USAGE}"
        ));
    };
    let baseline = Sidecar::load(Path::new(baseline_path))?;
    let current = Sidecar::load(Path::new(current_path))?;
    if baseline.experiment != current.experiment {
        eprintln!(
            "warning: comparing different experiments (`{}` vs `{}`)",
            baseline.experiment, current.experiment
        );
    }
    let report = diff::diff(&baseline, &current);
    print!("{}", report.render());
    if report.passed() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(2))
    }
}

fn run_validate_trace(argv: &[String]) -> Result<ExitCode, String> {
    let ([strict_drops], tokens) = switches(argv, ["--strict-drops"]);
    let (positionals, option_tokens) = split_positionals(&tokens);
    let [trace_path] = positionals[..] else {
        return Err(format!(
            "`bench validate-trace` needs one trace file\n{USAGE}"
        ));
    };
    let options = Options::parse(option_tokens)?;
    let min_threads: usize = options.parse_or("min-threads", 1)?;
    let text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let check = defender_obs::trace::validate_chrome_trace(&text)
        .map_err(|e| format!("{trace_path}: invalid trace: {e}"))?;
    if check.threads < min_threads {
        return Err(format!(
            "{trace_path}: trace spans {} thread(s), expected at least {min_threads}",
            check.threads
        ));
    }
    println!(
        "{trace_path}: valid Chrome trace ({} events, {} threads, max depth {}, {} dropped)",
        check.events, check.threads, check.max_depth, check.dropped
    );
    if check.dropped > 0 {
        eprintln!(
            "warning: {trace_path}: {} event(s) were dropped (ring overflow) — the timeline \
             is truncated; raise the ring capacity or shorten the run",
            check.dropped
        );
        if strict_drops {
            return Ok(ExitCode::from(2));
        }
    }
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bench diff` arguments over a baseline and a current sidecar
    /// written to a fresh scratch directory.
    fn diff_argv(tag: &str, base: &str, cur: &str) -> Vec<String> {
        let dir = std::env::temp_dir().join(format!("bench-diff-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut argv = vec!["diff".to_string()];
        for (name, text) in [("base.json", base), ("cur.json", cur)] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            argv.push(path.display().to_string());
        }
        argv
    }

    const BASE: &str = r#"{"experiment": "e1", "phases": [{"name": "sweep", "wall_seconds": 1.0},
        {"name": "verify", "wall_seconds": 0.5}], "counters": {"lp.pivots": 100, "mm.augment": 40}}"#;

    /// `BASE` with every phase twice as slow.
    fn doubled_phases() -> String {
        BASE.replace("1.0", "2.0").replace("0.5", "1.0")
    }

    #[test]
    fn doubled_phases_pass() {
        let argv = diff_argv("phases", BASE, &doubled_phases());
        assert_eq!(run(&argv), Ok(ExitCode::SUCCESS));
    }

    #[test]
    fn one_counter_up_21_percent_exits_2() {
        let cur = doubled_phases().replace("\"lp.pivots\": 100", "\"lp.pivots\": 121");
        assert_eq!(
            run(&diff_argv("counter", BASE, &cur)),
            Ok(ExitCode::from(2))
        );
    }

    #[test]
    fn removed_options_are_usage_errors() {
        let files = diff_argv("options", BASE, BASE);
        for option in [
            &["--counters-only"][..],
            &["--threshold", "0.5"],
            &["--noise-floor", "0.1"],
            &["--format", "json"],
        ] {
            let mut argv = files.clone();
            argv.extend(option.iter().map(ToString::to_string));
            let err = run(&argv).unwrap_err();
            assert!(err.contains("takes no options"), "{option:?}: {err}");
        }
    }
}
