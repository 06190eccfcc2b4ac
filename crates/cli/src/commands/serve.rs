//! `defender serve` — cache-first equilibrium serving over a std-only
//! HTTP front (see DESIGN.md §16).
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

use defender_serve::{ServeConfig, Server};

use crate::args::Options;

const USAGE: &str = "usage:\n  \
    defender serve --addr <HOST:PORT> [--cache <DIR>] [--max-queue <Q>] [--max-body <BYTES>]\n                 \
    [--max-vertices <V>] [--max-connections <C>]";

/// The options `serve` reads.
const OPTIONS: &[&str] = &[
    "addr",
    "cache",
    "max-queue",
    "max-body",
    "max-vertices",
    "max-connections",
];

/// Runs the `serve` command: builds a [`ServeConfig`] from the flags,
/// starts the server, and blocks until it is shut down over HTTP.
///
/// # Errors
///
/// Usage errors for malformed flags; bind and cache-open failures.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let options = Options::parse(argv, OPTIONS).map_err(|e| format!("{e}\n{USAGE}"))?;
    let mut config = ServeConfig {
        addr: options.required("addr")?.to_owned(),
        cache_dir: options.get("cache").map(PathBuf::from),
        ..ServeConfig::default()
    };
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
