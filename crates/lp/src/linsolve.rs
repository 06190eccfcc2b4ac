//! Exact linear-system solving (Gauss–Jordan over rationals).
//!
//! Used by the support-enumeration Nash solver in `defender-game`: the
//! indifference conditions of a candidate support pair form a square
//! linear system whose exact solution decides whether the support carries
//! an equilibrium.

use defender_num::{row_eliminate, row_scale_div, Ratio};

/// Solves the square system `A x = b` exactly.
///
/// Returns `None` when `A` is singular (no unique solution).
///
/// # Panics
///
/// Panics if `a` is not square or `b` has the wrong length.
///
/// # Examples
///
/// ```
/// use defender_lp::linsolve::solve_linear;
/// use defender_num::Ratio;
///
/// let a = vec![
///     vec![Ratio::from(2), Ratio::from(1)],
///     vec![Ratio::from(1), Ratio::from(3)],
/// ];
/// let b = vec![Ratio::from(5), Ratio::from(10)];
/// let x = solve_linear(&a, &b).unwrap();
/// assert_eq!(x, vec![Ratio::from(1), Ratio::from(3)]);
/// ```
#[must_use]
pub fn solve_linear(a: &[Vec<Ratio>], b: &[Ratio]) -> Option<Vec<Ratio>> {
    let n = a.len();
    assert_eq!(b.len(), n, "rhs length must match row count");
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");

    let _span = defender_obs::span!("linsolve_eliminate");
    defender_obs::counter!("lp.linsolve.solves").incr();

    // Augmented matrix.
    let mut m: Vec<Vec<Ratio>> = a
        .iter()
        .zip(b)
        .map(|(row, &bi)| {
            let mut r = row.clone();
            r.push(bi);
            r
        })
        .collect();

    for col in 0..n {
        // Pivot: first row at/below `col` with a non-zero entry.
        #[expect(
            clippy::indexing_slicing,
            reason = "square augmented matrix: col < n rows present"
        )]
        let pivot_row = (col..n).find(|&r| !m[r][col].is_zero())?;
        m.swap(col, pivot_row);
        #[expect(
            clippy::indexing_slicing,
            reason = "col < n; every row has n + 1 entries"
        )]
        let pivot = m[col][col];
        #[expect(clippy::indexing_slicing, reason = "col < n = m.len()")]
        row_scale_div(&mut m[col], pivot);
        #[expect(
            clippy::indexing_slicing,
            reason = "col..=n is within the n+1-entry row"
        )]
        let pivot_row: Vec<Ratio> = m[col][col..=n].to_vec();
        #[expect(
            clippy::indexing_slicing,
            reason = "every row has n + 1 entries; col < n"
        )]
        for (r, row) in m.iter_mut().enumerate() {
            if r == col || row[col].is_zero() {
                continue;
            }
            #[expect(
                clippy::indexing_slicing,
                reason = "every row has n + 1 entries; col < n"
            )]
            let factor = row[col];
            #[expect(
                clippy::indexing_slicing,
                reason = "col..=n is within the n+1-entry row"
            )]
            row_eliminate(&mut row[col..=n], factor, &pivot_row);
        }
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "every row has n + 1 entries; n is the rhs column"
    )]
    Some(m.into_iter().map(|row| row[n]).collect())
}

/// The determinant of a square rational matrix (fraction-free would be
/// faster; plain elimination is fine at the sizes used here).
///
/// # Panics
///
/// Panics if `a` is not square.
#[must_use]
pub fn determinant(a: &[Vec<Ratio>]) -> Ratio {
    let n = a.len();
    assert!(a.iter().all(|row| row.len() == n), "matrix must be square");

    let _span = defender_obs::span!("linsolve_determinant");
    let mut m: Vec<Vec<Ratio>> = a.to_vec();
    let mut det = Ratio::ONE;
    for col in 0..n {
        #[expect(
            clippy::indexing_slicing,
            reason = "square augmented matrix: col < n rows present"
        )]
        let Some(pivot_row) = (col..n).find(|&r| !m[r][col].is_zero()) else {
            return Ratio::ZERO;
        };
        if pivot_row != col {
            m.swap(col, pivot_row);
            det = -det;
        }
        #[expect(
            clippy::indexing_slicing,
            reason = "col < n; every row has n + 1 entries"
        )]
        let pivot = m[col][col];
        det *= pivot;
        #[expect(
            clippy::indexing_slicing,
            reason = "col..n is within the n+1-entry row"
        )]
        let pivot_row: Vec<Ratio> = m[col][col..n].to_vec();
        #[expect(
            clippy::indexing_slicing,
            reason = "every row has n + 1 entries; col < n"
        )]
        for row in m.iter_mut().skip(col + 1) {
            if row[col].is_zero() {
                continue;
            }
            // divisor nonzero: pivot chosen nonzero by the find above
            #[expect(
                clippy::indexing_slicing,
                reason = "every row has n + 1 entries; col < n"
            )]
            let factor = row[col] / pivot;
            #[expect(
                clippy::indexing_slicing,
                reason = "col..n is within the n+1-entry row"
            )]
            row_eliminate(&mut row[col..n], factor, &pivot_row);
        }
    }
    det
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

    #[test]
    fn solves_2x2() {
        let a = vec![vec![int(1), int(1)], vec![int(1), int(-1)]];
        let b = vec![int(3), int(1)];
        assert_eq!(solve_linear(&a, &b).unwrap(), vec![int(2), int(1)]);
    }

    #[test]
    fn solves_with_fractions() {
        let a = vec![vec![r(1, 2), r(1, 3)], vec![r(1, 4), r(1, 5)]];
        let b = vec![int(1), int(1)];
        let x = solve_linear(&a, &b).unwrap();
        // Verify by substitution.
        for (row, &bi) in a.iter().zip(&b) {
            let lhs: Ratio = row.iter().zip(&x).map(|(&aij, &xj)| aij * xj).sum();
            assert_eq!(lhs, bi);
        }
    }

    #[test]
    fn needs_row_swaps() {
        let a = vec![vec![int(0), int(1)], vec![int(1), int(0)]];
        let b = vec![int(7), int(5)];
        assert_eq!(solve_linear(&a, &b).unwrap(), vec![int(5), int(7)]);
    }

    #[test]
    fn singular_detected() {
        let a = vec![vec![int(1), int(2)], vec![int(2), int(4)]];
        assert_eq!(solve_linear(&a, &[int(1), int(2)]), None);
    }

    #[test]
    fn empty_system() {
        assert_eq!(solve_linear(&[], &[]), Some(vec![]));
    }

    #[test]
    fn determinant_values() {
        assert_eq!(determinant(&[vec![int(3)]]), int(3));
        assert_eq!(
            determinant(&[vec![int(1), int(2)], vec![int(3), int(4)]]),
            int(-2)
        );
        assert_eq!(
            determinant(&[vec![int(1), int(2)], vec![int(2), int(4)]]),
            Ratio::ZERO
        );
        // Row swap sign.
        assert_eq!(
            determinant(&[vec![int(0), int(1)], vec![int(1), int(0)]]),
            int(-1)
        );
    }

    #[test]
    fn determinant_consistent_with_solvability() {
        use defender_num::rng::{Rng, StdRng};
        let mut rng = StdRng::seed_from_u64(0xE2);
        for _ in 0..256 {
            let a: Vec<Vec<Ratio>> = (0..3)
                .map(|_| {
                    (0..3)
                        .map(|_| Ratio::from(rng.gen_range(0..9)) - Ratio::from(4))
                        .collect()
                })
                .collect();
            let b = vec![Ratio::ONE; 3];
            let solvable = solve_linear(&a, &b).is_some();
            let det = determinant(&a);
            assert_eq!(solvable, !det.is_zero());
        }
    }
}
