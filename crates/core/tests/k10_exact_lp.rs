//! K10 at k = 3 through the exact LP: 14,190 defender tuples against ten
//! vertices. With one LP row per vertex the packing tableau is
//! 10 × 14,201 exact rationals; one row per tuple would make it
//! 14,190 × 14,201, gigabytes. The test sits alone in this file so that
//! the process's peak resident set is its own.

use defender_core::exhaustive::GameAdapter;
use defender_core::model::TupleGame;
use defender_core::solve::solve_exact;
use defender_graph::generators;
use defender_num::Ratio;

const LIMIT: usize = 100_000;

#[test]
fn k10_at_k3_solves_exactly_in_small_memory() {
    let graph = generators::complete(10);
    let game = TupleGame::new(&graph, 3, 1).unwrap();
    let exact = solve_exact(&game, LIMIT).unwrap();
    // Three edges cover six of ten vertices, and every vertex is alike.
    assert_eq!(exact.value, Ratio::new(3, 5));
    let truth = GameAdapter::new(&game, LIMIT)
        .unwrap()
        .verify(&exact.config);
    assert!(truth.is_equilibrium(), "deviations: {:?}", truth.deviations);

    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let peak_kib: u64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            .expect("/proc/self/status reports VmHWM in kB");
        assert!(
            peak_kib < 64 * 1024,
            "peak resident set {peak_kib} KiB, bound 64 MiB"
        );
    }
}
