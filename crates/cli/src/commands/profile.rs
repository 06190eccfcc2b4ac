//! `defender profile` — trace analytics over a saved `--trace` export.
//!
//! ```text
//! defender profile <trace.json> [--format table|json] [--top N] [--sidecar]
//! ```
//!
//! Loads a Chrome trace-event JSON file (written by `--trace` on `exp`
//! or any `defender` command), replays it through
//! `defender-profile`, and prints the span table, text flamegraph, and
//! worker-utilization analysis (`--format table`, the default) or the
//! full machine-readable profile (`--format json`). `--sidecar`
//! additionally writes `BENCH_profile_<stem>.json` in the current
//! directory so `defender bench diff` can gate span-level regressions.
//!
//! The wall-clock accounting invariant — every lane's root spans sum to
//! at most the trace duration — is always enforced: a violating trace
//! exits with code 2, which is the CI profile gate.

use std::path::Path;
use std::process::ExitCode;

use crate::args::{split_positionals, switches, Options};

const USAGE: &str =
    "usage:\n  defender profile <trace.json> [--format table|json] [--top N] [--sidecar]";

/// Runs the subcommand.
///
/// # Errors
///
/// Returns a usage error for malformed arguments and an I/O/parse error
/// when the trace cannot be read; an accounting violation is an exit-2
/// outcome, not an error.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let ([sidecar], tokens) = switches(argv, ["--sidecar"]);
    let (positionals, option_tokens) = split_positionals(&tokens);
    let [trace_path] = positionals[..] else {
        return Err(format!("`profile` needs one trace file\n{USAGE}"));
    };
    let options =
        Options::parse(option_tokens, &["format", "top"]).map_err(|e| format!("{e}\n{USAGE}"))?;
    let top: usize = options.parse_or("top", 0)?;
    let format = options.get("format").unwrap_or("table");
    if !matches!(format, "table" | "json") {
        return Err(format!(
            "option `--format` must be `table` or `json`, got `{format}`"
        ));
    }

    let text = std::fs::read_to_string(trace_path)
        .map_err(|e| format!("cannot read {trace_path}: {e}"))?;
    let input = defender_profile::TraceInput::from_chrome_trace(&text)
        .map_err(|e| format!("{trace_path}: invalid trace: {e}"))?;
    let profile = defender_profile::Profile::build(&input);

    match format {
        "json" => println!("{}", defender_profile::to_json(&profile)),
        _ => print!("{}", defender_profile::to_table(&profile, top)),
    }
    if sidecar {
        let stem = Path::new(trace_path)
            .file_stem()
            .map_or_else(|| "trace".to_string(), |s| s.to_string_lossy().into_owned());
        let path = format!("BENCH_profile_{stem}.json");
        let json = defender_profile::sidecar_json(&profile, &format!("profile_{stem}"));
        std::fs::write(&path, json + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(message) = &profile.overrun {
        eprintln!("error: {trace_path}: wall-clock accounting violated: {message}");
        return Ok(ExitCode::from(2));
    }
    Ok(ExitCode::SUCCESS)
}
