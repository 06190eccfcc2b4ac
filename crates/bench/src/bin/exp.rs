//! `exp <experiment> [flags]` — runs one experiment of DESIGN.md §4 by
//! name (`exp e1` … `exp e15`) or every one of them in order under one
//! trace (`exp all`), with the flags of
//! [`defender_bench::experiment_main`]. Each experiment panics if its
//! predicted shape fails, so a clean `exp all` is a full reproduction
//! pass; it stays sequential at the top level (DESIGN.md §10).
//!
//! The experiment table lives here rather than in the library so the
//! `defender` binary, which links the library, does not carry them.

use defender_bench::experiments as ex;

/// Every experiment, in the order `exp all` runs them.
const EXPERIMENTS: &[(&str, fn())] = &[
    ("e1", ex::e1_pure_frontier::run),
    ("e2", ex::e2_pure_runtime::run),
    ("e3", ex::e3_characterization::run),
    ("e4", ex::e4_defender_power::run),
    ("e5", ex::e5_atuple_runtime::run),
    ("e6", ex::e6_bipartite::run),
    ("e7", ex::e7_montecarlo::run),
    ("e8", ex::e8_support_ablation::run),
    ("e9", ex::e9_roundtrip::run),
    ("e10", ex::e10_covering::run),
    ("e11", ex::e11_dynamics::run),
    ("e12", ex::e12_path_model::run),
    ("e13", ex::e13_exact_value::run),
    ("e14", ex::e14_defense_ratio::run),
    ("e15", ex::e15_value_atlas::run),
];

fn run_all() {
    for (name, run) in EXPERIMENTS {
        let banner = name.to_uppercase();
        println!("\n################ {banner} ################\n");
        run();
    }
    println!("\nAll experiments reproduced the paper's predictions.");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (name, flags) = argv
        .split_first()
        .map_or(("", &[][..]), |(name, flags)| (name.as_str(), flags));
    if name == "all" {
        defender_bench::experiment_main(name, flags, run_all);
    } else if let Some(&(_, run)) = EXPERIMENTS.iter().find(|(n, _)| *n == name) {
        defender_bench::experiment_main(name, flags, run);
    } else {
        let problem = if name.is_empty() {
            "missing experiment name".to_string()
        } else {
            format!("unknown experiment `{name}`")
        };
        let names: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "error: {problem}\nusage: exp <{}|all> [--jobs <N>] [--trace <FILE>] [--profile] \
             [--cache <DIR>] [--shard <i>/<N>]\n`--shard` applies to {} only",
            names.join("|"),
            defender_bench::shard::WINDOWED.join(", ")
        );
        std::process::exit(2);
    }
}
