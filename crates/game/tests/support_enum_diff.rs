//! Differential check of the pruned support enumeration: on seeded random
//! bimatrix games the pruned sweep must return the *identical* equilibrium
//! list (same order, same exact rationals) as the unpruned oracle, while
//! the `se.*` counters prove a real cut.

use defender_game::support_enumeration::{
    enumerate_equilibria, enumerate_equilibria_unpruned, BimatrixEquilibrium,
};
use defender_game::TwoPlayerMatrixGame;
use defender_num::rng::{Rng, StdRng};
use defender_num::Ratio;

fn assert_same_equilibria(pruned: &[BimatrixEquilibrium], oracle: &[BimatrixEquilibrium]) {
    assert_eq!(pruned.len(), oracle.len(), "equilibrium count differs");
    for (p, o) in pruned.iter().zip(oracle) {
        assert_eq!(p.row, o.row);
        assert_eq!(p.col, o.col);
        assert_eq!(p.row_payoff, o.row_payoff);
        assert_eq!(p.col_payoff, o.col_payoff);
    }
}

fn random_matrix(rng: &mut StdRng, rows: usize, cols: usize, lo: i64, hi: i64) -> Vec<Vec<Ratio>> {
    (0..rows)
        .map(|_| {
            (0..cols)
                .map(|_| Ratio::from(rng.gen_range(0..(hi - lo + 1) as usize) as i64 + lo))
                .collect()
        })
        .collect()
}

#[test]
fn pruned_matches_unpruned_on_random_bimatrix_games() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for round in 0..60 {
        let rows = rng.gen_range(1..5);
        let cols = rng.gen_range(1..5);
        // A narrow payoff range produces plenty of duplicate rows/columns
        // and dominance, exercising all four pruning rules.
        let a = random_matrix(&mut rng, rows, cols, -2, 2);
        let b = random_matrix(&mut rng, rows, cols, -2, 2);
        let game = TwoPlayerMatrixGame::new(a, b);
        assert_same_equilibria(
            &enumerate_equilibria(&game),
            &enumerate_equilibria_unpruned(&game),
        );
        let _ = round;
    }
}

#[test]
fn pruned_matches_unpruned_on_zero_sum_games() {
    let mut rng = StdRng::seed_from_u64(0x5EEE);
    for _ in 0..40 {
        let n = rng.gen_range(2..5);
        let m = rng.gen_range(2..5);
        // 0/1 matrices mimic the incidence games of the atlas experiments:
        // heavy duplication, many dominated strategies.
        let a: Vec<Vec<Ratio>> = (0..n)
            .map(|_| {
                (0..m)
                    .map(|_| Ratio::from(rng.gen_range(0..2) as i64))
                    .collect()
            })
            .collect();
        let game = TwoPlayerMatrixGame::zero_sum(a);
        assert_same_equilibria(
            &enumerate_equilibria(&game),
            &enumerate_equilibria_unpruned(&game),
        );
    }
}

#[test]
fn pruning_counters_prove_a_cut_on_duplicate_heavy_games() {
    // A game guaranteed to prune (duplicate rows and columns everywhere),
    // measured in a counting scope at one and at four workers: the scope
    // reaches the pool's workers, so the counts are exact at both widths.
    let ones = vec![vec![Ratio::ONE; 4]; 4];
    let game = TwoPlayerMatrixGame::zero_sum(ones);
    for jobs in [1, 4] {
        defender_par::set_jobs(jobs);
        let (eqs, deltas) = defender_obs::captured(|| enumerate_equilibria(&game));
        assert_same_equilibria(&eqs, &enumerate_equilibria_unpruned(&game));
        let delta = |name: &str| {
            deltas
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |&(_, v)| v)
        };
        assert_eq!(delta("se.pairs_tested"), 16, "jobs {jobs}");
        assert_eq!(delta("se.pairs_skipped"), 53, "jobs {jobs}");
        assert!(
            deltas.iter().all(|(name, _)| !name.starts_with("par.")),
            "jobs {jobs}: pool shape stays out of the scope: {deltas:?}"
        );
    }
}
