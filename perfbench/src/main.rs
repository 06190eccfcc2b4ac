//! `perfbench` — the repository benchmark, end to end and per layer.
//!
//! ```text
//! perfbench --workload <warm_hits|cold_misses|lp_sweep> --seed <n> --seconds <s>
//!           --trace <0|1> --defender <path to defender binary> --work-dir <dir>
//! ```
//!
//! `perfbench/run.py` builds both binaries and supplies the last two
//! options. With `--trace 0` the run measures the end-to-end metrics;
//! with `--trace 1` it replays the same inputs through every layer's
//! public call and reports per-layer metrics instead. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.

mod check;
mod http;
mod inputs;
mod layers;
mod procfs;
mod serve;
mod sweep;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// The `defender` binary serving the serve workloads.
    pub defender: PathBuf,
    /// Scratch directory for cache sidecars and the span log.
    pub work_dir: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |name: &str| -> Result<String, String> {
            let at = argv
                .iter()
                .position(|a| a == name)
                .ok_or_else(|| format!("missing {name}"))?;
            argv.get(at + 1)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let seconds: f64 = get("--seconds")?
            .parse()
            .ok()
            .filter(|s: &f64| *s > 0.0 && s.is_finite())
            .ok_or("--seconds must be a positive number")?;
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
        };
        Ok(Args {
            workload: get("--workload")?,
            seed: get("--seed")?
                .parse()
                .map_err(|_| "--seed must be an unsigned integer".to_owned())?,
            seconds: Duration::from_secs_f64(seconds),
            trace,
            defender: PathBuf::from(get("--defender")?),
            work_dir: PathBuf::from(get("--work-dir")?),
        })
    }
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run prints as its last line.
#[derive(Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Attempted operations that failed a check.
    pub failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let report = match args.workload.as_str() {
        "warm_hits" => serve::run(&args, serve::Kind::Warm),
        "cold_misses" => serve::run(&args, serve::Kind::Cold),
        "lp_sweep" => sweep::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    match report {
        Ok(report) if report.attempted == 0 => {
            eprintln!("perfbench: no operation completed in the timed phase");
            ExitCode::from(1)
        }
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
