//! `defender sweep` — run one experiment sharded across worker
//! processes, with live telemetry and checkpoint-resume.
//!
//! ```text
//! defender sweep e15 --shards 4
//! defender sweep e15 --shards 4 --resume sweep_e15
//! ```
//!
//! The heavy lifting lives in `defender-sweep` ([`defender_sweep::run_sweep`]);
//! this module owns the argument grammar and worker-binary resolution:
//! the `exp` binary is expected next to the `defender` executable (the
//! cargo target directory in development), overridable with `--bin-dir`
//! for installed layouts.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use defender_bench::shard::WINDOWED;
use defender_sweep::{run_sweep, SweepConfig};

use crate::args::{switches, Options};

const USAGE: &str = "usage:\n  \
    defender sweep <experiment> --shards <N> [--out <dir>] [--resume <dir>] [--parallel <M>]\n                \
    [--jobs <J>] [--profile] [--stall-timeout <SECS>] [--bin-dir <dir>] [--quiet]";

/// Runs the `sweep` command.
///
/// # Errors
///
/// Returns usage errors for unknown experiments or malformed flags, and
/// propagates runner failures (spawn errors, failed shards, merge
/// mismatches).
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let Some((experiment, rest)) = argv.split_first() else {
        return Err(format!(
            "`sweep` needs an experiment name ({})\n{USAGE}",
            WINDOWED.join(", ")
        ));
    };
    if !WINDOWED.contains(&experiment.as_str()) {
        return Err(format!(
            "experiment `{experiment}` is not sweepable; known: {}\n{USAGE}",
            WINDOWED.join(", ")
        ));
    }
    let ([profile, quiet], option_tokens) = switches(rest, ["--profile", "--quiet"]);
    let options = Options::parse(&option_tokens)?;

    let resume_dir = options.get("resume").map(PathBuf::from);
    let out_dir = match (options.get("out").map(PathBuf::from), &resume_dir) {
        (Some(out), Some(resume)) if out != *resume => {
            return Err("options `--out` and `--resume` disagree; pass one of them".to_string())
        }
        (Some(out), _) => out,
        (None, Some(resume)) => resume.clone(),
        (None, None) => PathBuf::from(format!("sweep_{experiment}")),
    };
    let shards: u64 = options.required_parse("shards")?;
    let binary = match options.get("bin-dir") {
        Some(dir) => PathBuf::from(dir),
        None => std::env::current_exe()
            .map_err(|e| format!("cannot locate this executable: {e}"))?
            .parent()
            .map(PathBuf::from)
            .ok_or("this executable has no parent directory")?,
    }
    .join("exp");
    if !binary.exists() {
        return Err(format!(
            "worker binary {} not found; build it with \
             `cargo build --release -p defender-bench` or point `--bin-dir` at it",
            binary.display()
        ));
    }

    let mut config = SweepConfig::new(experiment, binary, shards, out_dir);
    config.resume = resume_dir.is_some();
    config.parallel = options.parse_or("parallel", 0usize)?;
    config.profile = profile;
    config.quiet = quiet;
    if let Some(jobs) = options.get("jobs") {
        let jobs: usize = jobs
            .parse()
            .map_err(|_| format!("option `--jobs` needs a positive integer, got `{jobs}`"))?;
        if jobs == 0 {
            return Err("option `--jobs` must be at least 1".to_string());
        }
        config.jobs = Some(jobs);
    }
    let stall_secs: f64 = options.parse_or("stall-timeout", 10.0)?;
    if !stall_secs.is_finite() || stall_secs <= 0.0 {
        return Err("option `--stall-timeout` must be positive seconds".to_string());
    }
    config.stall_timeout = Duration::from_secs_f64(stall_secs);

    let outcome = run_sweep(&config)?;
    if outcome.resumed > 0 {
        eprintln!(
            "resumed {} shard(s) from checkpoints in {}",
            outcome.resumed,
            config.out_dir.display()
        );
    }
    match outcome.merged_sidecar {
        Some(path) => {
            println!("wrote {}", path.display());
            Ok(ExitCode::SUCCESS)
        }
        None => {
            eprintln!(
                "sweep stopped early after {} shard(s); resume with \
                 `defender sweep {experiment} --shards {shards} --resume {}`",
                outcome.completed,
                config.out_dir.display()
            );
            Ok(ExitCode::from(3))
        }
    }
}
