//! Exact zero-sum matrix-game solving via the classical LP reduction.

use defender_num::Ratio;

use crate::simplex::{maximize, solve_with_basis, LpError, LpSolution, DEFAULT_PIVOT_LIMIT};

/// An exact solution of a zero-sum matrix game.
#[derive(Clone, Debug)]
pub struct ZeroSumSolution {
    /// The game's value (row player's guaranteed expectation).
    pub value: Ratio,
    /// An optimal mixed strategy for the row (maximizing) player.
    pub row_strategy: Vec<Ratio>,
    /// An optimal mixed strategy for the column (minimizing) player.
    pub col_strategy: Vec<Ratio>,
}

/// Solves the zero-sum game with payoff matrix `m` (row player receives
/// `m[i][j]`, column player pays it).
///
/// The reduction: shift `M` to `M' = M + σ > 0`, then the packing LP
/// `max Σ w_j  s.t.  M' w ≤ 1, w ≥ 0` has optimum `1/v'` where
/// `v' = value(M')`; the column strategy is `w·v'` and the row strategy
/// comes out of the duals. Everything is exact.
///
/// # Errors
///
/// [`LpError::ShapeMismatch`] for empty/ragged matrices. (The game LP is
/// never unbounded: the feasible region is compact after the shift.)
pub fn solve_zero_sum(m: &[Vec<Ratio>]) -> Result<ZeroSumSolution, LpError> {
    solve_zero_sum_hinted(m, None)
}

/// [`solve_zero_sum`] with an optional *support hint*: the supports of
/// any one equilibrium of the game, `(row_support, col_support)` as
/// strategy indices.
///
/// By complementary slackness an equilibrium's supports determine an
/// optimal basis of the packing LP — structural variables `w_j` for the
/// supported columns, slack variables for the rows *outside* the row
/// support (supported rows are tight) — so the warm-started simplex
/// typically finishes in zero Bland pivots. The attempt is counted under
/// `lp.warm.attempts`; a hint whose basis is singular, infeasible
/// (degenerate supports), malformed, or blows the pivot budget falls
/// back to the cold solve and counts under `lp.warm.rejected`. The
/// result is *always* the same optimum a cold solve produces (exact
/// arithmetic, same Bland rule from the installed basis).
///
/// # Errors
///
/// Same as [`solve_zero_sum`] — hint failures never surface, they only
/// cost the fallback.
pub fn solve_zero_sum_hinted(
    m: &[Vec<Ratio>],
    hint: Option<(&[usize], &[usize])>,
) -> Result<ZeroSumSolution, LpError> {
    let rows = m.len();
    if rows == 0 {
        return Err(LpError::ShapeMismatch {
            reason: "empty matrix".into(),
        });
    }
    let cols = m.first().map_or(0, Vec::len);
    if cols == 0 || m.iter().any(|r| r.len() != cols) {
        return Err(LpError::ShapeMismatch {
            reason: "ragged or empty matrix".into(),
        });
    }

    // Shift strictly positive.
    let Some(min_entry) = m.iter().flat_map(|r| r.iter().copied()).min() else {
        return Err(LpError::ShapeMismatch {
            reason: "empty matrix".into(),
        });
    };
    let sigma = Ratio::ONE - min_entry.min(Ratio::ZERO);
    let shifted: Vec<Vec<Ratio>> = m
        .iter()
        .map(|r| r.iter().map(|&x| x + sigma).collect())
        .collect();

    // max Σ w_j s.t. M' w ≤ 1, w ≥ 0.
    let objective = vec![Ratio::ONE; cols];
    let rhs = vec![Ratio::ONE; rows];
    let solution = solve_packing_lp(&objective, &shifted, &rhs, hint)?;
    debug_assert!(
        solution.objective > Ratio::ZERO,
        "M' > 0 makes the optimum positive"
    );
    let Ok(shifted_value) = solution.objective.recip() else {
        // M' > 0 makes the optimum positive, so a zero objective here means
        // the simplex produced an infeasible tableau — surface it as a
        // shape-grade error instead of panicking.
        return Err(LpError::ShapeMismatch {
            reason: "zero optimum for a strictly positive shifted matrix".into(),
        });
    };

    let col_strategy: Vec<Ratio> = solution.primal.iter().map(|&w| w * shifted_value).collect();
    let row_strategy: Vec<Ratio> = solution.dual.iter().map(|&y| y * shifted_value).collect();
    debug_assert_eq!(col_strategy.iter().copied().sum::<Ratio>(), Ratio::ONE);
    debug_assert_eq!(row_strategy.iter().copied().sum::<Ratio>(), Ratio::ONE);

    Ok(ZeroSumSolution {
        value: shifted_value - sigma,
        row_strategy,
        col_strategy,
    })
}

/// Runs the packing LP, warm-started from the support hint when one is
/// given and constructible, cold otherwise. Rejected warm starts fall
/// back to the cold solve (`lp.warm.rejected`).
fn solve_packing_lp(
    objective: &[Ratio],
    shifted: &[Vec<Ratio>],
    rhs: &[Ratio],
    hint: Option<(&[usize], &[usize])>,
) -> Result<LpSolution, LpError> {
    let rows = shifted.len();
    let cols = objective.len();
    if let Some((row_support, col_support)) = hint {
        defender_obs::counter!("lp.warm.attempts").incr();
        if let Some(basis) = basis_from_supports(row_support, col_support, rows, cols) {
            match solve_with_basis(objective, shifted, rhs, &basis, DEFAULT_PIVOT_LIMIT) {
                Ok(solution) => return Ok(solution),
                Err(LpError::BasisRejected { .. } | LpError::PivotBudgetExceeded { .. }) => {
                    defender_obs::counter!("lp.warm.rejected").incr();
                }
                Err(other) => return Err(other),
            }
        } else {
            defender_obs::counter!("lp.warm.rejected").incr();
        }
    }
    maximize(objective, shifted, rhs)
}

/// Builds the complementary-slackness basis from equilibrium supports:
/// structural `w_j` for each supported column, slacks for rows outside
/// the row support, padded with supported-row slacks (ascending) when
/// the column support is smaller than the row support. Returns `None`
/// for out-of-range or oversized supports — the caller then falls back
/// to a cold solve.
fn basis_from_supports(
    row_support: &[usize],
    col_support: &[usize],
    rows: usize,
    cols: usize,
) -> Option<Vec<usize>> {
    let mut in_row_support = vec![false; rows];
    for &i in row_support {
        *in_row_support.get_mut(i)? = true;
    }
    let mut in_col_support = vec![false; cols];
    for &j in col_support {
        *in_col_support.get_mut(j)? = true;
    }
    #[expect(clippy::indexing_slicing, reason = "j < cols = in_col_support.len()")]
    let mut basis: Vec<usize> = (0..cols).filter(|&j| in_col_support[j]).collect();
    #[expect(clippy::indexing_slicing, reason = "i < rows = in_row_support.len()")]
    basis.extend((0..rows).filter(|&i| !in_row_support[i]).map(|i| cols + i));
    if basis.len() > rows {
        return None; // more supported columns than tight rows: not a basis
    }
    // Degenerate case |col support| < |row support|: keep the smallest
    // supported-row slacks basic (at value zero) to square the basis.
    #[expect(clippy::indexing_slicing, reason = "i < rows = in_row_support.len()")]
    for i in (0..rows).filter(|&i| in_row_support[i]) {
        if basis.len() == rows {
            break;
        }
        basis.push(cols + i);
    }
    Some(basis)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    fn int(v: i64) -> Ratio {
        Ratio::from(v)
    }

    /// Verifies a claimed solution: both strategies are distributions and
    /// each guarantees the value against every pure reply.
    fn certify(m: &[Vec<Ratio>], s: &ZeroSumSolution) {
        assert_eq!(s.row_strategy.iter().copied().sum::<Ratio>(), Ratio::ONE);
        assert_eq!(s.col_strategy.iter().copied().sum::<Ratio>(), Ratio::ONE);
        assert!(s.row_strategy.iter().all(|&p| p >= Ratio::ZERO));
        assert!(s.col_strategy.iter().all(|&p| p >= Ratio::ZERO));
        // Row strategy guarantees ≥ value against every column.
        for j in 0..m[0].len() {
            let payoff: Ratio = m
                .iter()
                .zip(&s.row_strategy)
                .map(|(row, &p)| row[j] * p)
                .sum();
            assert!(payoff >= s.value, "column {j}: {payoff} < {}", s.value);
        }
        // Column strategy caps every row at ≤ value.
        for (i, row) in m.iter().enumerate() {
            let payoff: Ratio = row.iter().zip(&s.col_strategy).map(|(&x, &q)| x * q).sum();
            assert!(payoff <= s.value, "row {i}: {payoff} > {}", s.value);
        }
    }

    #[test]
    fn matching_pennies() {
        let m = vec![vec![int(1), int(-1)], vec![int(-1), int(1)]];
        let s = solve_zero_sum(&m).unwrap();
        assert_eq!(s.value, Ratio::ZERO);
        assert_eq!(s.row_strategy, vec![r(1, 2), r(1, 2)]);
        assert_eq!(s.col_strategy, vec![r(1, 2), r(1, 2)]);
        certify(&m, &s);
    }

    #[test]
    fn rock_paper_scissors() {
        let m = vec![
            vec![int(0), int(-1), int(1)],
            vec![int(1), int(0), int(-1)],
            vec![int(-1), int(1), int(0)],
        ];
        let s = solve_zero_sum(&m).unwrap();
        assert_eq!(s.value, Ratio::ZERO);
        assert_eq!(s.row_strategy, vec![r(1, 3); 3]);
        certify(&m, &s);
    }

    #[test]
    fn game_with_saddle_point() {
        // Row 1 dominates; column 0 dominates: saddle at (1, 0), value 2.
        let m = vec![vec![int(1), int(3)], vec![int(2), int(4)]];
        let s = solve_zero_sum(&m).unwrap();
        assert_eq!(s.value, int(2));
        assert_eq!(s.row_strategy, vec![Ratio::ZERO, Ratio::ONE]);
        assert_eq!(s.col_strategy, vec![Ratio::ONE, Ratio::ZERO]);
        certify(&m, &s);
    }

    #[test]
    fn asymmetric_fractional_value() {
        // Classic: [[2, -1], [-1, 1]] → value 1/5, row (2/5, 3/5), col (2/5, 3/5).
        let m = vec![vec![int(2), int(-1)], vec![int(-1), int(1)]];
        let s = solve_zero_sum(&m).unwrap();
        assert_eq!(s.value, r(1, 5));
        assert_eq!(s.row_strategy, vec![r(2, 5), r(3, 5)]);
        certify(&m, &s);
    }

    #[test]
    fn rectangular_games() {
        // 1×3: row player has one option; value = min entry.
        let m = vec![vec![int(4), int(2), int(7)]];
        let s = solve_zero_sum(&m).unwrap();
        assert_eq!(s.value, int(2));
        certify(&m, &s);
        // 3×1: value = max entry.
        let m = vec![vec![int(4)], vec![int(2)], vec![int(7)]];
        let s = solve_zero_sum(&m).unwrap();
        assert_eq!(s.value, int(7));
        certify(&m, &s);
    }

    #[test]
    fn all_negative_matrix() {
        let m = vec![vec![int(-3), int(-5)], vec![int(-4), int(-2)]];
        let s = solve_zero_sum(&m).unwrap();
        certify(&m, &s);
        assert!(s.value < Ratio::ZERO);
    }

    #[test]
    fn empty_matrix_rejected() {
        assert!(solve_zero_sum(&[]).is_err());
        assert!(solve_zero_sum(&[vec![]]).is_err());
    }

    #[test]
    fn hinted_solve_matches_cold_solve_exactly() {
        // Supports of the unique equilibrium of [[2,-1],[-1,1]]: both
        // players mix fully. The hinted solve must return bit-identical
        // value and strategies.
        let m = vec![vec![int(2), int(-1)], vec![int(-1), int(1)]];
        let cold = solve_zero_sum(&m).unwrap();
        let warm = solve_zero_sum_hinted(&m, Some((&[0, 1], &[0, 1]))).unwrap();
        assert_eq!(warm.value, cold.value);
        assert_eq!(warm.row_strategy, cold.row_strategy);
        assert_eq!(warm.col_strategy, cold.col_strategy);
        certify(&m, &warm);
    }

    #[test]
    fn bad_hints_fall_back_to_cold_solve() {
        let m = vec![vec![int(2), int(-1)], vec![int(-1), int(1)]];
        let cold = solve_zero_sum(&m).unwrap();
        // Out-of-range, oversized, and empty hints all degrade gracefully.
        for hint in [
            (&[7usize][..], &[0usize, 1][..]),
            (&[0][..], &[0, 1][..]),
            (&[][..], &[][..]),
        ] {
            let s = solve_zero_sum_hinted(&m, Some(hint)).unwrap();
            assert_eq!(s.value, cold.value, "hint {hint:?}");
            certify(&m, &s);
        }
    }

    #[test]
    fn saddle_point_hint_warm_starts() {
        // Saddle at (row 1, col 0): supports are singletons.
        let m = vec![vec![int(1), int(3)], vec![int(2), int(4)]];
        let s = solve_zero_sum_hinted(&m, Some((&[1], &[0]))).unwrap();
        assert_eq!(s.value, int(2));
        certify(&m, &s);
    }

    #[test]
    fn random_hinted_solves_agree_with_cold() {
        use defender_num::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xE9);
        for _ in 0..64 {
            let m: Vec<Vec<Ratio>> = (0..3)
                .map(|_| {
                    (0..3)
                        .map(|_| Ratio::from(rng.gen_range(0..7)) - Ratio::from(3))
                        .collect()
                })
                .collect();
            let cold = solve_zero_sum(&m).expect("solvable");
            let row_support: Vec<usize> = (0..3)
                .filter(|&i| !cold.row_strategy[i].is_zero())
                .collect();
            let col_support: Vec<usize> = (0..3)
                .filter(|&j| !cold.col_strategy[j].is_zero())
                .collect();
            let warm = solve_zero_sum_hinted(&m, Some((&row_support, &col_support))).unwrap();
            assert_eq!(warm.value, cold.value);
            certify(&m, &warm);
        }
    }

    #[test]
    fn random_matrices_certify() {
        use defender_num::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xE3);
        for _ in 0..256 {
            let m: Vec<Vec<Ratio>> = (0..4)
                .map(|_| {
                    (0..4)
                        .map(|_| Ratio::from(rng.gen_range(0..11)) - Ratio::from(5))
                        .collect()
                })
                .collect();
            let s = solve_zero_sum(&m).expect("solvable");
            certify(&m, &s);
        }
    }
}
