//! `defender serve` — cache-first batched equilibrium serving over a
//! std-only HTTP front (see DESIGN.md §16).
//!
//! ```text
//! defender serve --addr 127.0.0.1:8080 --cache ./memo
//! ```
//!
//! Prints one `listening <addr>` line once the socket is bound (the CI
//! gate and scripts parse it — `--addr 127.0.0.1:0` picks an ephemeral
//! port), then blocks until a client POSTs `/v1/shutdown`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use defender_serve::{ServeConfig, Server};

use crate::args::Options;

const USAGE: &str = "usage:\n  \
    defender serve --addr <HOST:PORT> [--cache <DIR>] [--jobs <N>] [--batch-window-ms <W>]\n                 \
    [--max-queue <Q>] [--max-body <BYTES>] [--deadline-ms <D>] [--max-vertices <V>]\n                 \
    [--max-connections <C>]";

/// Runs the `serve` command: builds a [`ServeConfig`] from the flags,
/// starts the server, and blocks until it is shut down over HTTP.
///
/// # Errors
///
/// Usage errors for malformed flags; bind and cache-open failures.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let options = Options::parse(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    let mut config = ServeConfig {
        addr: options.required("addr")?.to_owned(),
        cache_dir: options.get("cache").map(PathBuf::from),
        ..ServeConfig::default()
    };
    config.jobs = options.parse_or("jobs", config.jobs)?;
    if let Some(window) = options.get("batch-window-ms") {
        let ms: u64 = window
            .parse()
            .map_err(|_| format!("bad --batch-window-ms `{window}`"))?;
        config.batch_window = Duration::from_millis(ms);
    }
    if let Some(deadline) = options.get("deadline-ms") {
        let ms: u64 = deadline
            .parse()
            .map_err(|_| format!("bad --deadline-ms `{deadline}`"))?;
        config.deadline = Duration::from_millis(ms);
    }
    config.max_queue = options.parse_or("max-queue", config.max_queue)?;
    config.max_body = options.parse_or("max-body", config.max_body)?;
    config.max_vertices = options.parse_or("max-vertices", config.max_vertices)?;
    config.max_connections = options.parse_or("max-connections", config.max_connections)?;
    if config.max_queue == 0 {
        return Err("option `--max-queue` must be at least 1".to_string());
    }
    let server = Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    println!("listening {}", server.addr());
    server.wait();
    eprintln!("server stopped");
    Ok(ExitCode::SUCCESS)
}
