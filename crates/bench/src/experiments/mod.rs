//! One module per experiment of DESIGN.md §4. Each exposes a `run()` that
//! prints its table/series to stdout and panics if the paper's predicted
//! shape fails (so `exp all` doubles as a reproduction gate). The `exp`
//! binary maps the names `e1` … `e15` to these functions.

pub mod common;
pub mod e10_covering;
pub mod e11_dynamics;
pub mod e12_path_model;
pub mod e13_exact_value;
pub mod e14_defense_ratio;
pub mod e15_value_atlas;
pub mod e1_pure_frontier;
pub mod e2_pure_runtime;
pub mod e3_characterization;
pub mod e4_defender_power;
pub mod e5_atuple_runtime;
pub mod e6_bipartite;
pub mod e7_montecarlo;
pub mod e8_support_ablation;
pub mod e9_roundtrip;
