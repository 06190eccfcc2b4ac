//! `defender` — command-line front end for the Tuple model.
//!
//! ```text
//! defender generate --family cycle --n 12 --out ring.edges
//! defender analyze  --graph ring.edges --k 2 --nu 6
//! defender simulate --graph ring.edges --k 2 --nu 6 --rounds 100000
//! defender bench diff baselines/BENCH_e1.json BENCH_e1.json
//! defender help
//! ```
//!
//! Graph files are plain edge lists: one `u v` pair per line, `#` comments
//! allowed, vertex count inferred from the largest index.

use std::path::PathBuf;
use std::process::ExitCode;

mod args;
mod commands;
mod edgelist;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("run `defender help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// The options every generic command (`generate`, `analyze`, `simulate`,
/// `value`, `convert`) takes on top of its own.
const COMMON_OPTIONS: &[&str] = &["jobs", "metrics", "metrics-out", "trace"];

/// The entry point of a generic command.
type GenericRun = fn(&args::Options) -> Result<(), String>;

fn run(argv: &[String]) -> Result<ExitCode, String> {
    let Some((command, rest)) = argv.split_first() else {
        commands::help::print();
        return Ok(ExitCode::SUCCESS);
    };
    // `bench` and `profile` manage their own argument grammars
    // (positional files, value-less flags), which `Options::parse`
    // rejects by design; dispatch them before the
    // uniform option pass. `serve` blocks until shut down over HTTP, so
    // it skips the post-run metrics/trace export below. `help` takes an
    // optional positional topic.
    if command == "bench" {
        return commands::bench::run(rest);
    }
    if command == "profile" {
        return commands::profile::run(rest);
    }
    if command == "serve" {
        return commands::serve::run(rest);
    }
    if command == "help" || command == "--help" || command == "-h" {
        commands::help::run(rest);
        return Ok(ExitCode::SUCCESS);
    }
    let (own, command_run): (&[&str], GenericRun) = match command.as_str() {
        "generate" => (commands::generate::OPTIONS, commands::generate::run),
        "analyze" => (commands::analyze::OPTIONS, commands::analyze::run),
        "simulate" => (commands::simulate::OPTIONS, commands::simulate::run),
        "value" => (commands::value::OPTIONS, commands::value::run),
        "convert" => (commands::convert::OPTIONS, commands::convert::run),
        other => return Err(format!("unknown command `{other}`")),
    };
    let known: Vec<&str> = own.iter().chain(COMMON_OPTIONS).copied().collect();
    let options = args::Options::parse(rest, &known)?;
    if options.get("jobs").is_some() {
        let n: usize = options.required_parse("jobs")?;
        if n == 0 {
            return Err("option `--jobs` must be at least 1".to_string());
        }
        defender_par::set_jobs(n);
    }
    let metrics = metrics_format(&options)?;
    let metrics_out = options.get("metrics-out").map(PathBuf::from);
    let trace_out = options.get("trace").map(PathBuf::from);
    if metrics.is_some() || metrics_out.is_some() {
        defender_obs::enable();
    }
    if trace_out.is_some() {
        defender_obs::trace::start();
    }
    let result = command_run(&options);
    if result.is_ok() {
        if let Some(format) = metrics {
            dump_metrics(format);
        }
        if let Some(path) = metrics_out {
            let snapshot = defender_obs::snapshot();
            std::fs::write(&path, snapshot.to_json())
                .map_err(|e| format!("cannot write metrics to {}: {e}", path.display()))?;
            eprintln!("wrote metrics {}", path.display());
        }
        if let Some(path) = trace_out {
            defender_obs::trace::stop();
            defender_obs::trace::write_chrome_trace(&path)
                .map_err(|e| format!("cannot write trace to {}: {e}", path.display()))?;
            eprintln!("wrote trace {}", path.display());
        }
    }
    result.map(|()| ExitCode::SUCCESS)
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MetricsFormat {
    Json,
    Table,
}

/// Parses `--metrics json|table` (any command accepts it).
fn metrics_format(options: &args::Options) -> Result<Option<MetricsFormat>, String> {
    match options.get("metrics") {
        None => Ok(None),
        Some("json") => Ok(Some(MetricsFormat::Json)),
        Some("table") => Ok(Some(MetricsFormat::Table)),
        Some(other) => Err(format!(
            "option `--metrics` must be `json` or `table`, got `{other}`"
        )),
    }
}

fn dump_metrics(format: MetricsFormat) {
    let snapshot = defender_obs::snapshot();
    match format {
        MetricsFormat::Json => println!("{}", snapshot.to_json()),
        MetricsFormat::Table => {
            println!("-- metrics --");
            print!("{}", snapshot.to_table());
        }
    }
}
