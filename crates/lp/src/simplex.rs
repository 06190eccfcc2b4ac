//! Tableau simplex with Bland's rule, in exact rational arithmetic.
//!
//! Solves the *packing form*
//!
//! ```text
//! maximize    c · x
//! subject to  A x ≤ b,   x ≥ 0,   b ≥ 0
//! ```
//!
//! which is all the zero-sum reduction needs (the all-slack basis is
//! feasible because `b ≥ 0`, so no phase-one is required). Bland's
//! smallest-index pivoting rule guarantees termination even on degenerate
//! tableaus, and exact rationals make the optimum — and the dual prices —
//! bit-for-bit reproducible.
//!
//! The tableau is dense, `constraints × (variables + constraints + 1)`.
//! The exact solve of `Π_k(G)` (`defender_core::solve`) makes the
//! attacker's `n` vertices the constraints and the defender's `C(m, k)`
//! tuples the variables, so its tableau is `n × (C(m, k) + n + 1)`,
//! linear in the tuple count.
//!
//! Two entry points share the core loop: [`maximize`] starts from the
//! all-slack basis, and [`solve_with_basis`] *warm-starts* from a
//! caller-supplied basis (typically read off an equilibrium support via
//! complementary slackness — see `zero_sum::solve_zero_sum_hinted`). A
//! warm start that is singular or infeasible is rejected with a typed
//! [`LpError::BasisRejected`], and every solve is bounded by a pivot
//! budget returning [`LpError::PivotBudgetExceeded`] — never a panic —
//! so an adversarial basis cannot spin the exact arithmetic for hours.

use core::fmt;

use defender_num::{row_eliminate, row_scale_div, Ratio};

/// Default pivot budget: orders of magnitude above anything the
/// workspace's games need (the E15 atlas peaks at tens of pivots per
/// solve), yet small enough to bound a pathological warm start.
pub const DEFAULT_PIVOT_LIMIT: u64 = 1 << 20;

/// Errors from [`maximize`] / [`solve_with_basis`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpError {
    /// The objective is unbounded above on the feasible region.
    Unbounded,
    /// A right-hand side was negative (packing form requires `b ≥ 0`).
    NegativeRhs {
        /// The offending constraint row.
        row: usize,
    },
    /// Matrix shapes disagree.
    ShapeMismatch {
        /// Human-readable description.
        reason: String,
    },
    /// The pivot budget ran out before optimality; the tableau state is
    /// discarded. Warm-start callers fall back to a cold solve.
    PivotBudgetExceeded {
        /// The budget that was exhausted.
        limit: u64,
    },
    /// A warm-start basis could not be installed (wrong size, duplicate
    /// or out-of-range variables, singular column set) or the basic
    /// solution it defines is infeasible.
    BasisRejected {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::Unbounded => write!(f, "objective is unbounded"),
            LpError::NegativeRhs { row } => {
                write!(f, "constraint {row} has a negative right-hand side")
            }
            LpError::ShapeMismatch { reason } => write!(f, "shape mismatch: {reason}"),
            LpError::PivotBudgetExceeded { limit } => {
                write!(f, "pivot budget of {limit} exhausted before optimality")
            }
            LpError::BasisRejected { reason } => write!(f, "warm-start basis rejected: {reason}"),
        }
    }
}

impl std::error::Error for LpError {}

/// An optimal solution of the packing LP.
#[derive(Clone, Debug)]
pub struct LpSolution {
    /// The optimal objective value `c · x*`.
    pub objective: Ratio,
    /// The optimal primal point `x*` (length = number of variables).
    pub primal: Vec<Ratio>,
    /// The optimal dual prices `y*` (length = number of constraints);
    /// `y*` solves the dual `min b·y, Aᵀy ≥ c, y ≥ 0`.
    pub dual: Vec<Ratio>,
    /// The optimal basis: `basis[i]` is the variable occupying
    /// constraint row `i` (`< n` structural, `≥ n` slack). Feed it to
    /// [`solve_with_basis`] to warm-start a nearby LP.
    pub basis: Vec<usize>,
    /// Bland pivots this solve performed (excludes warm-start
    /// installation steps, which are plain Gaussian elimination).
    pub pivots: u64,
}

/// Solves `max c·x  s.t.  A x ≤ b, x ≥ 0` exactly from the all-slack
/// basis, with the [`DEFAULT_PIVOT_LIMIT`] budget.
///
/// # Errors
///
/// - [`LpError::ShapeMismatch`] for ragged input;
/// - [`LpError::NegativeRhs`] if any `b_i < 0`;
/// - [`LpError::Unbounded`] when no optimum exists;
/// - [`LpError::PivotBudgetExceeded`] if the default budget runs out.
pub fn maximize(c: &[Ratio], a: &[Vec<Ratio>], b: &[Ratio]) -> Result<LpSolution, LpError> {
    solve(c, a, b, None, DEFAULT_PIVOT_LIMIT)
}

/// Solves the packing LP warm-started from `basis` — the optimal basis
/// of a nearby LP (or one read off an equilibrium support). The basis is
/// installed by Gaussian pivoting, checked for feasibility, and then
/// Bland's rule runs to optimality under `pivot_limit`; when the basis
/// was already optimal the loop exits after zero pivots.
///
/// Pivots performed here are counted under `lp.simplex.pivots` *and*
/// `lp.simplex.warm_pivots`, so the telemetry separates residual work in
/// warm solves from cold-solve work.
///
/// # Errors
///
/// Everything [`maximize`] returns, plus [`LpError::BasisRejected`] when
/// `basis` is malformed, singular, or infeasible. Callers are expected
/// to fall back to a cold [`maximize`] on `BasisRejected` /
/// [`LpError::PivotBudgetExceeded`].
pub fn solve_with_basis(
    c: &[Ratio],
    a: &[Vec<Ratio>],
    b: &[Ratio],
    basis: &[usize],
    pivot_limit: u64,
) -> Result<LpSolution, LpError> {
    solve(c, a, b, Some(basis), pivot_limit)
}

fn solve(
    c: &[Ratio],
    a: &[Vec<Ratio>],
    b: &[Ratio],
    warm: Option<&[usize]>,
    pivot_limit: u64,
) -> Result<LpSolution, LpError> {
    let n = c.len();
    let m = a.len();
    if b.len() != m {
        return Err(LpError::ShapeMismatch {
            reason: format!("{m} rows but {} rhs entries", b.len()),
        });
    }
    for (i, row) in a.iter().enumerate() {
        if row.len() != n {
            return Err(LpError::ShapeMismatch {
                reason: format!("row {i} has {} coefficients, expected {n}", row.len()),
            });
        }
    }
    if let Some(row) = b.iter().position(|&bi| bi < Ratio::ZERO) {
        return Err(LpError::NegativeRhs { row });
    }

    let _span = defender_obs::span!("simplex");
    defender_obs::counter!("lp.simplex.calls").incr();
    defender_obs::histogram!("lp.simplex.constraints").record(m as u64);

    // Tableau: m constraint rows over columns [x .. | slacks .. | rhs],
    // plus a reduced-cost row (maximization: positive entry ⇒ improvable).
    let cols = n + m + 1;
    let mut tableau: Vec<Vec<Ratio>> = Vec::with_capacity(m + 1);
    #[expect(
        clippy::indexing_slicing,
        reason = "n + i < n + m < cols; cols >= 1; i < m = b.len()"
    )]
    for i in 0..m {
        let mut row = vec![Ratio::ZERO; cols];
        #[expect(
            clippy::indexing_slicing,
            reason = "row has cols > n entries; i < m = a.len()"
        )]
        row[..n].copy_from_slice(&a[i]);
        row[n + i] = Ratio::ONE;
        row[cols - 1] = b[i];
        tableau.push(row);
    }
    let mut objective = vec![Ratio::ZERO; cols];
    #[expect(clippy::indexing_slicing, reason = "objective has cols > n entries")]
    objective[..n].copy_from_slice(c);
    tableau.push(objective);

    // basis[i]: the variable occupying constraint row i (starts at slacks).
    let mut basis: Vec<usize> = (n..n + m).collect();
    if let Some(target) = warm {
        install_basis(&mut tableau, &mut basis, target, n, m)?;
        if let Some(row) = (0..m).find(
            #[expect(
                clippy::indexing_slicing,
                reason = "i < m tableau rows; cols - 1 is the rhs column"
            )]
            |&i| tableau[i][cols - 1] < Ratio::ZERO,
        ) {
            return Err(LpError::BasisRejected {
                reason: format!("installed basis is primal-infeasible at row {row}"),
            });
        }
    }
    let warm_started = warm.is_some();

    // Bland: entering variable = smallest column with positive reduced cost;
    // loop until no column can improve the objective (optimality).
    let mut pivots = 0u64;
    #[expect(clippy::indexing_slicing, reason = "pivot_row < m = basis.len()")]
    while let Some(entering) = (0..n + m).find(
        #[expect(
            clippy::indexing_slicing,
            reason = "row m is the objective row; j < n + m < cols"
        )]
        |&j| tableau[m][j] > Ratio::ZERO,
    ) {
        if pivots >= pivot_limit {
            return Err(LpError::PivotBudgetExceeded { limit: pivot_limit });
        }
        // Ratio test; Bland tie-break on the smallest basis variable.
        let mut leaving: Option<(usize, Ratio)> = None;
        for i in 0..m {
            #[expect(clippy::indexing_slicing, reason = "i < m; entering < n + m < cols")]
            let coeff = tableau[i][entering];
            if coeff > Ratio::ZERO {
                // divisor nonzero: coeff > 0 checked on the line above
                #[expect(clippy::indexing_slicing, reason = "i < m; cols - 1 is the rhs column")]
                let ratio = tableau[i][cols - 1] / coeff;
                let better = match &leaving {
                    None => true,
                    #[expect(
                        clippy::indexing_slicing,
                        reason = "i and *li are below m = basis.len()"
                    )]
                    Some((li, lr)) => ratio < *lr || (ratio == *lr && basis[i] < basis[*li]),
                };
                if better {
                    leaving = Some((i, ratio));
                }
            }
        }
        let Some((pivot_row, min_ratio)) = leaving else {
            return Err(LpError::Unbounded);
        };
        pivots += 1;
        defender_obs::counter!("lp.simplex.pivots").incr();
        if warm_started {
            defender_obs::counter!("lp.simplex.warm_pivots").incr();
        }
        if min_ratio.is_zero() {
            // A zero ratio pivots without moving the solution point; Bland's
            // rule keeps these degenerate steps from cycling.
            defender_obs::counter!("lp.simplex.degenerate_pivots").incr();
        }
        pivot(&mut tableau, pivot_row, entering);
        basis[pivot_row] = entering;
    }

    // Read the solution.
    let mut primal = vec![Ratio::ZERO; n];
    #[expect(
        clippy::indexing_slicing,
        reason = "var < n checked above; i < m; cols - 1 in range"
    )]
    for (i, &var) in basis.iter().enumerate() {
        if var < n {
            primal[var] = tableau[i][cols - 1];
        }
    }
    // Reduced cost of slack i at optimum is −y_i.
    #[expect(
        clippy::indexing_slicing,
        reason = "row m is the objective row; n + i < cols"
    )]
    let dual: Vec<Ratio> = (0..m).map(|i| -tableau[m][n + i]).collect();
    #[expect(
        clippy::indexing_slicing,
        reason = "row m is the objective row; cols - 1 in range"
    )]
    let objective = -tableau[m][cols - 1];
    Ok(LpSolution {
        objective,
        primal,
        dual,
        basis,
        pivots,
    })
}

/// Pivots the tableau on `(pivot_row, entering)` with the
/// deferred-reduction row kernels: one gcd per updated element instead
/// of two, and none at all on the zero/integer fast paths. Shared by the
/// Bland loop and warm-start installation.
fn pivot(tableau: &mut [Vec<Ratio>], pivot_row: usize, entering: usize) {
    #[expect(
        clippy::indexing_slicing,
        reason = "pivot_row < m + 1 rows; entering < cols"
    )]
    let pivot = tableau[pivot_row][entering];
    #[expect(clippy::indexing_slicing, reason = "pivot_row is a valid tableau row")]
    row_scale_div(&mut tableau[pivot_row], pivot);
    #[expect(clippy::indexing_slicing, reason = "pivot_row is a valid tableau row")]
    let pivot_values = tableau[pivot_row].clone();
    for (i, row) in tableau.iter_mut().enumerate() {
        if i == pivot_row {
            continue;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "entering < cols; every row has cols entries"
        )]
        let factor = row[entering];
        if factor.is_zero() {
            continue;
        }
        row_eliminate(row, factor, &pivot_values);
    }
}

/// Installs a warm-start basis by Gaussian pivoting: every structural
/// variable of `target` (ascending) is pivoted into the smallest
/// still-free row with a nonzero coefficient. Rows whose own slack is in
/// `target` are kept as-is. Greedy row choice is complete: if the target
/// column set is nonsingular, elimination always leaves a nonzero pivot
/// among the free rows, so a failure here means the basis really is
/// singular.
fn install_basis(
    tableau: &mut [Vec<Ratio>],
    basis: &mut [usize],
    target: &[usize],
    n: usize,
    m: usize,
) -> Result<(), LpError> {
    if target.len() != m {
        return Err(LpError::BasisRejected {
            reason: format!("basis has {} variables, expected {m}", target.len()),
        });
    }
    let mut seen = vec![false; n + m];
    #[expect(
        clippy::indexing_slicing,
        reason = "v < n + m = seen.len() checked above"
    )]
    for &v in target {
        if v >= n + m {
            return Err(LpError::BasisRejected {
                reason: format!("variable {v} out of range (n + m = {})", n + m),
            });
        }
        if seen[v] {
            return Err(LpError::BasisRejected {
                reason: format!("variable {v} appears twice"),
            });
        }
        seen[v] = true;
    }
    // Rows whose initial slack stays basic keep their row; the rest are
    // free to receive the entering structural variables.
    #[expect(clippy::indexing_slicing, reason = "n + i < n + m = seen.len()")]
    let mut assigned: Vec<bool> = (0..m).map(|i| seen[n + i]).collect();
    let mut entering_vars: Vec<usize> = target.iter().copied().filter(|&v| v < n).collect();
    entering_vars.sort_unstable();
    #[expect(
        clippy::indexing_slicing,
        reason = "row < m = basis.len(); row < m = assigned.len()"
    )]
    for j in entering_vars {
        #[expect(clippy::indexing_slicing, reason = "i < m tableau rows; j < n < cols")]
        let Some(row) = (0..m).find(|&i| !assigned[i] && !tableau[i][j].is_zero()) else {
            return Err(LpError::BasisRejected {
                reason: format!("singular basis: no pivot row for variable {j}"),
            });
        };
        pivot(tableau, row, j);
        basis[row] = j;
        assigned[row] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    #[test]
    fn textbook_two_variable_lp() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → (2, 6), obj 36.
        let solution = maximize(
            &[r(3, 1), r(5, 1)],
            &[
                vec![r(1, 1), r(0, 1)],
                vec![r(0, 1), r(2, 1)],
                vec![r(3, 1), r(2, 1)],
            ],
            &[r(4, 1), r(12, 1), r(18, 1)],
        )
        .unwrap();
        assert_eq!(solution.objective, r(36, 1));
        assert_eq!(solution.primal, vec![r(2, 1), r(6, 1)]);
        // Strong duality: b·y = 36.
        let b_dot_y =
            r(4, 1) * solution.dual[0] + r(12, 1) * solution.dual[1] + r(18, 1) * solution.dual[2];
        assert_eq!(b_dot_y, r(36, 1));
    }

    #[test]
    fn fractional_optimum() {
        // max x + y s.t. 2x + y ≤ 1, x + 2y ≤ 1 → x = y = 1/3, obj 2/3.
        let solution = maximize(
            &[r(1, 1), r(1, 1)],
            &[vec![r(2, 1), r(1, 1)], vec![r(1, 1), r(2, 1)]],
            &[r(1, 1), r(1, 1)],
        )
        .unwrap();
        assert_eq!(solution.objective, r(2, 3));
        assert_eq!(solution.primal, vec![r(1, 3), r(1, 3)]);
    }

    #[test]
    fn unbounded_detected() {
        // max x with no binding constraint on x.
        let err = maximize(&[r(1, 1), r(0, 1)], &[vec![r(0, 1), r(1, 1)]], &[r(1, 1)]).unwrap_err();
        assert_eq!(err, LpError::Unbounded);
    }

    #[test]
    fn zero_objective_is_fine() {
        let solution = maximize(&[r(0, 1)], &[vec![r(1, 1)]], &[r(5, 1)]).unwrap();
        assert_eq!(solution.objective, Ratio::ZERO);
        assert_eq!(solution.primal, vec![Ratio::ZERO]);
    }

    #[test]
    fn negative_rhs_rejected() {
        let err = maximize(&[r(1, 1)], &[vec![r(1, 1)]], &[r(-1, 1)]).unwrap_err();
        assert_eq!(err, LpError::NegativeRhs { row: 0 });
    }

    #[test]
    fn shape_mismatch_rejected() {
        assert!(maximize(&[r(1, 1)], &[vec![r(1, 1), r(1, 1)]], &[r(1, 1)]).is_err());
        assert!(maximize(&[r(1, 1)], &[vec![r(1, 1)]], &[]).is_err());
    }

    #[test]
    fn degenerate_tableau_terminates() {
        // Degeneracy: redundant constraints touching the optimum; Bland's
        // rule must not cycle.
        let solution = maximize(
            &[r(1, 1), r(1, 1)],
            &[
                vec![r(1, 1), r(0, 1)],
                vec![r(1, 1), r(0, 1)],
                vec![r(0, 1), r(1, 1)],
                vec![r(1, 1), r(1, 1)],
            ],
            &[r(1, 1), r(1, 1), r(1, 1), r(2, 1)],
        )
        .unwrap();
        assert_eq!(solution.objective, r(2, 1));
    }

    #[test]
    fn pivot_budget_returns_typed_error_never_panics() {
        // The textbook LP needs a handful of pivots; a budget of 1 must
        // surface as PivotBudgetExceeded, not an assert or a hang.
        let err = solve(
            &[r(3, 1), r(5, 1)],
            &[
                vec![r(1, 1), r(0, 1)],
                vec![r(0, 1), r(2, 1)],
                vec![r(3, 1), r(2, 1)],
            ],
            &[r(4, 1), r(12, 1), r(18, 1)],
            None,
            1,
        )
        .unwrap_err();
        assert_eq!(err, LpError::PivotBudgetExceeded { limit: 1 });
        // A budget of 0 trips before the first pivot.
        let err = solve(&[r(1, 1)], &[vec![r(1, 1)]], &[r(1, 1)], None, 0).unwrap_err();
        assert_eq!(err, LpError::PivotBudgetExceeded { limit: 0 });
    }

    #[test]
    fn warm_start_from_optimal_basis_needs_zero_pivots() {
        let c = [r(3, 1), r(5, 1)];
        let a = vec![
            vec![r(1, 1), r(0, 1)],
            vec![r(0, 1), r(2, 1)],
            vec![r(3, 1), r(2, 1)],
        ];
        let b = [r(4, 1), r(12, 1), r(18, 1)];
        let cold = maximize(&c, &a, &b).unwrap();
        assert!(cold.pivots > 0);
        let warm = solve_with_basis(&c, &a, &b, &cold.basis, DEFAULT_PIVOT_LIMIT).unwrap();
        assert_eq!(warm.pivots, 0, "optimal basis re-solves pivot-free");
        assert_eq!(warm.objective, cold.objective);
        assert_eq!(warm.primal, cold.primal);
        assert_eq!(warm.dual, cold.dual);
        // Row assignment may differ; the basic variable *set* must not.
        let mut warm_set = warm.basis.clone();
        let mut cold_set = cold.basis.clone();
        warm_set.sort_unstable();
        cold_set.sort_unstable();
        assert_eq!(warm_set, cold_set);
    }

    #[test]
    fn warm_start_from_nearby_basis_finishes() {
        // Start from the all-slack basis passed explicitly: equivalent to
        // a cold solve, must reach the same optimum.
        let c = [r(1, 1), r(1, 1)];
        let a = vec![vec![r(2, 1), r(1, 1)], vec![r(1, 1), r(2, 1)]];
        let b = [r(1, 1), r(1, 1)];
        let warm = solve_with_basis(&c, &a, &b, &[2, 3], DEFAULT_PIVOT_LIMIT).unwrap();
        assert_eq!(warm.objective, r(2, 3));
        assert_eq!(warm.primal, vec![r(1, 3), r(1, 3)]);
    }

    #[test]
    fn malformed_bases_are_rejected_with_reasons() {
        let c = [r(1, 1), r(1, 1)];
        let a = vec![vec![r(2, 1), r(1, 1)], vec![r(1, 1), r(2, 1)]];
        let b = [r(1, 1), r(1, 1)];
        // Wrong size.
        assert!(matches!(
            solve_with_basis(&c, &a, &b, &[0], DEFAULT_PIVOT_LIMIT),
            Err(LpError::BasisRejected { .. })
        ));
        // Out of range.
        assert!(matches!(
            solve_with_basis(&c, &a, &b, &[0, 9], DEFAULT_PIVOT_LIMIT),
            Err(LpError::BasisRejected { .. })
        ));
        // Duplicate.
        assert!(matches!(
            solve_with_basis(&c, &a, &b, &[1, 1], DEFAULT_PIVOT_LIMIT),
            Err(LpError::BasisRejected { .. })
        ));
    }

    #[test]
    fn singular_basis_is_rejected_not_panicked() {
        // Column 1 is all zeros, so {x1, slack0} cannot form a basis for
        // the second row.
        let c = [r(1, 1), r(1, 1)];
        let a = vec![vec![r(1, 1), r(0, 1)], vec![r(1, 1), r(0, 1)]];
        let b = [r(1, 1), r(1, 1)];
        let err = solve_with_basis(&c, &a, &b, &[1, 2], DEFAULT_PIVOT_LIMIT).unwrap_err();
        assert!(matches!(err, LpError::BasisRejected { .. }), "{err}");
    }

    #[test]
    fn infeasible_basis_is_rejected() {
        // Basis {x0, slack1} for: x0 ≤ 1, x0 ≥ ... second row 2x0 ≤ 1.
        // Installing x0 from row 0 gives x0 = 1, slack1 = 1 − 2 = −1 < 0.
        let c = [r(1, 1)];
        let a = vec![vec![r(1, 1)], vec![r(2, 1)]];
        let b = [r(1, 1), r(1, 1)];
        let err = solve_with_basis(&c, &a, &b, &[0, 2], DEFAULT_PIVOT_LIMIT).unwrap_err();
        assert!(matches!(err, LpError::BasisRejected { .. }), "{err}");
    }

    #[test]
    fn warm_start_agrees_with_cold_on_random_lps() {
        use defender_num::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xE7);
        for _ in 0..128 {
            let c: Vec<Ratio> = (0..3).map(|_| Ratio::from(rng.gen_range(0..6))).collect();
            let a: Vec<Vec<Ratio>> = (0..3)
                .map(|_| (0..3).map(|_| Ratio::from(rng.gen_range(0..5))).collect())
                .collect();
            let b: Vec<Ratio> = (0..3).map(|_| Ratio::from(rng.gen_range(1..9))).collect();
            let Ok(cold) = maximize(&c, &a, &b) else {
                continue; // unbounded: nothing to warm-start
            };
            let warm = solve_with_basis(&c, &a, &b, &cold.basis, DEFAULT_PIVOT_LIMIT)
                .expect("optimal basis must install");
            assert_eq!(warm.objective, cold.objective);
            assert_eq!(warm.primal, cold.primal);
            assert_eq!(warm.dual, cold.dual);
            assert_eq!(warm.pivots, 0);
        }
    }

    #[test]
    fn duals_certify_optimality_on_random_lps() {
        use defender_num::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xE1);
        for _ in 0..256 {
            let c: Vec<Ratio> = (0..3).map(|_| Ratio::from(rng.gen_range(0..6))).collect();
            let a: Vec<Vec<Ratio>> = (0..3)
                .map(|_| (0..3).map(|_| Ratio::from(rng.gen_range(0..5))).collect())
                .collect();
            let b: Vec<Ratio> = (0..3).map(|_| Ratio::from(rng.gen_range(1..9))).collect();
            match maximize(&c, &a, &b) {
                Ok(solution) => {
                    // Primal feasibility.
                    for (row, &bi) in a.iter().zip(&b) {
                        let lhs: Ratio = row
                            .iter()
                            .zip(&solution.primal)
                            .map(|(&aij, &xj)| aij * xj)
                            .sum();
                        assert!(lhs <= bi);
                    }
                    assert!(solution.primal.iter().all(|&x| x >= Ratio::ZERO));
                    // Dual feasibility.
                    assert!(solution.dual.iter().all(|&y| y >= Ratio::ZERO));
                    for j in 0..c.len() {
                        let aty: Ratio = a
                            .iter()
                            .zip(&solution.dual)
                            .map(|(row, &yi)| row[j] * yi)
                            .sum();
                        assert!(aty >= c[j]);
                    }
                    // Strong duality.
                    let by: Ratio = b.iter().zip(&solution.dual).map(|(&bi, &yi)| bi * yi).sum();
                    assert_eq!(by, solution.objective);
                }
                Err(LpError::Unbounded) => {
                    // Possible when some c_j > 0 has a zero column.
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
    }
}
