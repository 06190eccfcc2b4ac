//! `defender lint` — the workspace static-analysis pass.
//!
//! Thin wrapper over `defender_lint::run`, the one entry point of the
//! linter: exit codes 0 clean, 2 findings, 1 error.

use std::process::ExitCode;

/// Runs the lint driver with the raw (positional-friendly) arguments.
///
/// # Errors
///
/// Propagates usage and I/O errors from the lint driver.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let code = defender_lint::run(argv)?;
    Ok(ExitCode::from(code))
}
