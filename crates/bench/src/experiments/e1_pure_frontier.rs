//! E1 — Theorem 3.1 + Corollary 3.3: the pure-NE existence frontier.
//!
//! For every family in the zoo, report `n`, `m`, the edge-cover number
//! `ρ(G)` and the `⌈n/2⌉` lower bound, then sweep *every* width `k` and
//! check that a pure NE exists exactly when `k ≥ ρ(G)` — and that
//! Corollary 3.3's size test never contradicts the exact answer.

use defender_core::model::TupleGame;
use defender_core::pure::{no_pure_ne_by_size, pure_ne_existence};
use defender_matching::edge_cover::edge_cover_number;

use crate::experiments::common::deterministic_families;
use crate::{RunReport, Table};

/// Runs the experiment; panics if any instance violates Theorem 3.1.
pub fn run() {
    println!("== E1: pure Nash equilibrium existence frontier (Theorem 3.1, Cor 3.3) ==\n");
    defender_obs::enable();
    defender_obs::reset();
    let mut report = RunReport::new("e1_pure_frontier");
    let mut table = Table::new(vec![
        "family",
        "n",
        "m",
        "rho(G)",
        "ceil(n/2)",
        "frontier k*",
        "sweep",
    ]);
    // Families are independent instances: sweep them on the worker pool
    // and merge rows/phases in family order, so the table (and hence
    // stdout) is byte-identical for every `--jobs` width. A violated
    // theorem panics inside a task and propagates, failing the run just
    // as the sequential sweep did.
    let families = deterministic_families();
    let results = defender_par::par_map(&families, |(name, graph)| {
        let family_start = std::time::Instant::now();
        let rho = edge_cover_number(graph).expect("zoo graphs are game-ready");
        let mut observed_frontier = None;
        for k in 1..=graph.edge_count() {
            let game = TupleGame::new(graph, k, 3).expect("valid width");
            let exists = pure_ne_existence(&game).exists();
            assert_eq!(exists, k >= rho, "{name}: k = {k} disagrees with ρ = {rho}");
            if no_pure_ne_by_size(&game) {
                assert!(!exists, "{name}: Corollary 3.3 contradicted at k = {k}");
            }
            if exists && observed_frontier.is_none() {
                observed_frontier = Some(k);
            }
        }
        let row = vec![
            name.to_string(),
            graph.vertex_count().to_string(),
            graph.edge_count().to_string(),
            rho.to_string(),
            graph.vertex_count().div_ceil(2).to_string(),
            observed_frontier.map_or("none".into(), |k| k.to_string()),
            "ok".into(),
        ];
        (row, family_start.elapsed())
    });
    for ((name, _), (row, elapsed)) in families.iter().zip(results) {
        table.row(row);
        report.phase(name, elapsed);
    }
    table.print();
    println!("\nPaper prediction: frontier k* = ρ(G) everywhere; sweep column confirms.");
    report.harvest_and_write();
    defender_obs::disable();
}
