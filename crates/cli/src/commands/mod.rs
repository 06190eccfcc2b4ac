//! The CLI subcommands.

pub mod analyze;
pub mod bench;
pub mod convert;
pub mod generate;
pub mod help;
pub mod profile;
pub mod serve;
pub mod simulate;
pub mod sweep;
pub mod value;
