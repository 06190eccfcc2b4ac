//! Support enumeration: *all* equilibria of small bimatrix games.
//!
//! For a candidate pair of equal-size supports, the opponent's mixture
//! must make every supported pure strategy exactly indifferent — a square
//! rational linear system ([`defender_lp::solve_linear`]). Solving it,
//! checking non-negativity and the outside-support deviation conditions
//! yields every equilibrium with those supports; sweeping all pairs finds
//! every equilibrium of a *nondegenerate* game (degenerate games may
//! additionally carry continua of equilibria, of which this reports the
//! equal-support extreme points).
//!
//! Exponential in the strategy counts — this is a cross-validation tool
//! for tiny games (the exact constructions of `defender-core` are checked
//! against it), not a production solver.

use defender_lp::solve_linear;
use defender_num::Ratio;

use crate::{nash, MixedStrategy, StrategicGame, TwoPlayerMatrixGame};

/// One equilibrium of a bimatrix game.
#[derive(Clone, Debug)]
pub struct BimatrixEquilibrium {
    /// The row player's mixed strategy.
    pub row: MixedStrategy<usize>,
    /// The column player's mixed strategy.
    pub col: MixedStrategy<usize>,
    /// The row player's expected payoff.
    pub row_payoff: Ratio,
    /// The column player's expected payoff.
    pub col_payoff: Ratio,
}

const MAX_STRATEGIES: usize = 12;

/// Precomputed dominance/duplication structure of a bimatrix game, used to
/// discard candidate support pairs that provably carry no equilibrium
/// *before* their indifference systems are built and solved.
///
/// Every pruning rule is output-preserving: each one certifies that
/// [`try_supports`] would have returned `None` for the pair, either because
/// the pair's linear system is singular (duplicate rows/columns restricted
/// to the supports) or because dominance — weak on the support with at
/// least one strict coordinate inside it — contradicts the best-response
/// conditions that the positivity/deviation checks enforce.
/// The enumeration therefore returns the exact same equilibrium list, in
/// the same order, as the unpruned sweep.
struct PruneTables {
    /// Entry `cm`: bitmask of rows `i` dominated on the column set `cm` —
    /// some `i' ≠ i` has `A[i'][j] ≥ A[i][j]` for all `j ∈ cm` with at
    /// least one strict. Any equilibrium mixture `y` with support `cm` is
    /// strictly positive there, so `i'` pays strictly more than `i`
    /// against it; `i` supported then contradicts either row indifference
    /// (`i'` supported too) or the deviation bound (`i'` outside), and the
    /// pair dies in the positivity or deviation checks.
    dom_rows_by_colmask: Vec<u32>,
    /// `[j][j']`: bitmask of rows `i` with `B[i][j] < B[i][j']`. Column
    /// `j` is dominated on a row support `R` if some `j'` is nowhere
    /// worse on `R` and strictly better somewhere on `R` — the same
    /// weak-dominance-with-a-strict-coordinate rule, transposed.
    col_lt_rows: Vec<Vec<u32>>,
    /// Row pairs `(i, i', eq)` with `eq` the columns where the two A-rows
    /// agree. If both rows are supported and the column support lies
    /// inside `eq`, the y-system has two identical equations — singular,
    /// so `solve_linear` would return `None`.
    row_eq_cols: Vec<(usize, usize, u32)>,
    /// Column pairs `(j, j', eq)` with `eq` the rows where the two
    /// B-columns agree; singular x-system when the row support fits.
    col_eq_rows: Vec<(usize, usize, u32)>,
    /// Rows strictly dominated on the *full* column set: every equal-size
    /// pair of any row support containing one is skipped wholesale.
    globally_dominated_rows: u32,
}

impl PruneTables {
    fn build(game: &TwoPlayerMatrixGame) -> PruneTables {
        let rows = game.rows();
        let cols = game.cols();
        let a: Vec<Vec<Ratio>> = (0..rows)
            .map(|i| (0..cols).map(|j| game.payoff(0, &[i, j])).collect())
            .collect();
        let b: Vec<Vec<Ratio>> = (0..rows)
            .map(|i| (0..cols).map(|j| game.payoff(1, &[i, j])).collect())
            .collect();

        // lt_a[i][i']: columns where row i pays strictly less than row i'.
        #[expect(
            clippy::indexing_slicing,
            reason = "i, i2 < rows and j < cols loop bounds"
        )]
        let lt_a: Vec<Vec<u32>> = (0..rows)
            .map(|i| {
                (0..rows)
                    .map(|i2| {
                        (0..cols)
                            .filter(|&j| a[i][j] < a[i2][j])
                            .fold(0u32, |m, j| m | (1 << j))
                    })
                    .collect()
            })
            .collect();
        // Row `i` is dominated on `cm` by `i'` when `i'` is nowhere worse
        // (`lt_a[i'][i]` misses `cm`) and strictly better somewhere in it.
        let dom_rows_by_colmask: Vec<u32> = (0..(1usize << cols))
            .map(|cm| {
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "cols <= MAX_STRATEGIES = 12; masks fit u32"
                )]
                let cm = cm as u32;
                #[expect(clippy::indexing_slicing, reason = "lt_a is rows x rows; loop bounds")]
                (0..rows)
                    .filter(|&i| {
                        (0..rows)
                            .any(|i2| i2 != i && lt_a[i2][i] & cm == 0 && lt_a[i][i2] & cm != 0)
                    })
                    .fold(0u32, |m, i| m | (1 << i))
            })
            .collect();

        #[expect(
            clippy::indexing_slicing,
            reason = "i < rows and j, j2 < cols loop bounds"
        )]
        let col_lt_rows: Vec<Vec<u32>> = (0..cols)
            .map(|j| {
                (0..cols)
                    .map(|j2| {
                        (0..rows)
                            .filter(|&i| b[i][j] < b[i][j2])
                            .fold(0u32, |m, i| m | (1 << i))
                    })
                    .collect()
            })
            .collect();

        let mut row_eq_cols = Vec::new();
        for i in 0..rows {
            for i2 in i + 1..rows {
                #[expect(clippy::indexing_slicing, reason = "a is rows x cols; loop bounds")]
                let eq = (0..cols)
                    .filter(|&j| a[i][j] == a[i2][j])
                    .fold(0u32, |m, j| m | (1 << j));
                if eq != 0 {
                    row_eq_cols.push((i, i2, eq));
                }
            }
        }
        let mut col_eq_rows = Vec::new();
        for j in 0..cols {
            for j2 in j + 1..cols {
                #[expect(clippy::indexing_slicing, reason = "b is rows x cols; loop bounds")]
                let eq = (0..rows)
                    .filter(|&i| b[i][j] == b[i][j2])
                    .fold(0u32, |m, i| m | (1 << i));
                if eq != 0 {
                    col_eq_rows.push((j, j2, eq));
                }
            }
        }

        // The wholesale row-support skip needs dominance that survives
        // restriction to *every* column subset, i.e. strict on every
        // single column — weak-with-one-strict does not restrict.
        #[expect(
            clippy::cast_possible_truncation,
            reason = "cols <= MAX_STRATEGIES = 12; the mask fits u32"
        )]
        let all_cols = ((1u64 << cols) - 1) as u32;
        #[expect(clippy::indexing_slicing, reason = "lt_a is rows x rows; loop bounds")]
        let globally_dominated_rows = (0..rows)
            .filter(|&i| (0..rows).any(|i2| i2 != i && lt_a[i][i2] == all_cols))
            .fold(0u32, |m, i| m | (1 << i));
        PruneTables {
            dom_rows_by_colmask,
            col_lt_rows,
            row_eq_cols,
            col_eq_rows,
            globally_dominated_rows,
        }
    }
}

/// Per-row-support prune state derived from [`PruneTables`]: everything
/// rule evaluation needs once the row support is fixed, so the inner
/// column loop is a handful of mask operations per pair.
struct RowMaskFilters {
    /// Columns dominated on this row support (rule 1).
    dominated_cols: u32,
    /// Column-agreement masks of supported duplicate A-row pairs (rule 3).
    dup_row_eqs: Vec<u32>,
    /// Supported-pair masks of duplicate B-columns on this support (rule 4).
    dup_col_pairs: Vec<u32>,
}

impl RowMaskFilters {
    fn build(tables: &PruneTables, cols: usize, row_mask: u32) -> RowMaskFilters {
        // Columns dominated on this row support (rule 1): some `j'` is
        // nowhere worse on the support and strictly better on at least
        // one supported row.
        #[expect(
            clippy::indexing_slicing,
            reason = "col_lt_rows is cols x cols; loop bounds"
        )]
        let dominated_cols = (0..cols)
            .filter(|&j| {
                (0..cols).any(|j2| {
                    j2 != j
                        && tables.col_lt_rows[j2][j] & row_mask == 0
                        && tables.col_lt_rows[j][j2] & row_mask != 0
                })
            })
            .fold(0u32, |m, j| m | (1 << j));
        // Supported row pairs with duplicate A-rows (rule 3): any column
        // support inside `eq` makes the y-system singular.
        let dup_row_eqs: Vec<u32> = tables
            .row_eq_cols
            .iter()
            .filter(|&&(i, i2, _)| row_mask & (1 << i) != 0 && row_mask & (1 << i2) != 0)
            .map(|&(_, _, eq)| eq)
            .collect();
        // Column pairs with duplicate B-columns on this row support
        // (rule 4): both columns supported makes the x-system singular.
        let dup_col_pairs: Vec<u32> = tables
            .col_eq_rows
            .iter()
            .filter(|&&(_, _, eq)| row_mask & !eq == 0)
            .map(|&(j, j2, _)| (1 << j) | (1 << j2))
            .collect();
        RowMaskFilters {
            dominated_cols,
            dup_row_eqs,
            dup_col_pairs,
        }
    }

    /// Whether the pair `(row support, col_mask)` provably carries no
    /// equilibrium (rules 1–4; rule 2 is the table lookup).
    fn prunes(&self, tables: &PruneTables, row_mask: u32, col_mask: u32) -> bool {
        col_mask & self.dominated_cols != 0
            || tables
                .dom_rows_by_colmask
                .get(col_mask as usize)
                .is_some_and(|&rows| rows & row_mask != 0)
            || self.dup_row_eqs.iter().any(|&eq| col_mask & !eq == 0)
            || self.dup_col_pairs.iter().any(|&pm| pm & !col_mask == 0)
    }
}

/// `C(n, k)` for the tiny ranges of the enumeration (`n ≤ 12`).
#[expect(
    clippy::integer_division_remainder_used,
    reason = "divisor i + 1 >= 1, and the running product of i + 1 consecutive integers divides exactly"
)]
fn binomial(n: usize, k: usize) -> u64 {
    if k > n {
        return 0;
    }
    let mut out = 1u64;
    for i in 0..k.min(n - k) {
        out = out * (n - i) as u64 / (i + 1) as u64;
    }
    out
}

/// Enumerates the equilibria of `game` with equal-size supports.
///
/// For nondegenerate games this is the complete equilibrium set.
///
/// Candidate support pairs are filtered through [`PruneTables`] before
/// their indifference systems are solved; the skipped pairs are exactly
/// pairs that cannot carry an equilibrium, so the returned list — and the
/// legacy `game.support_enum.*` counters — are identical to the unpruned
/// sweep ([`enumerate_equilibria_unpruned`] checks this differentially).
/// The new `se.pairs_tested` / `se.pairs_skipped` counters quantify the
/// cut.
///
/// # Panics
///
/// Panics if either player has more than 12 strategies (2^12 subsets per
/// side).
#[must_use]
pub fn enumerate_equilibria(game: &TwoPlayerMatrixGame) -> Vec<BimatrixEquilibrium> {
    let rows = game.rows();
    let cols = game.cols();
    assert!(
        rows <= MAX_STRATEGIES && cols <= MAX_STRATEGIES,
        "support enumeration limited to {MAX_STRATEGIES} strategies per player"
    );
    let _span = defender_obs::span!("enumerate_equilibria");
    let tables = PruneTables::build(game);
    let all_col_masks = (1u64 << cols) - 1;
    // Fan the outer row-support loop over the worker pool: each candidate
    // row support scans every column support independently, and the
    // per-mask result blocks are merged in mask order, so the returned
    // list is identical for every pool width. The `game.support_enum.*`
    // counters are atomic sums over all cells and therefore equally
    // order-insensitive; each worker batches its tallies locally and
    // flushes once per row mask to keep atomics off the hot path.
    let blocks: Vec<Vec<BimatrixEquilibrium>> =
        defender_par::par_for_indexed((1usize << rows) - 1, |idx| {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "idx < 2^rows <= 2^12; fits u32"
            )]
            let row_mask = idx as u32 + 1;
            let support_size = row_mask.count_ones() as usize;
            let mut size_mismatch = 0u64;
            let mut tested_legacy = 0u64;
            let mut pairs_tested = 0u64;
            let mut pairs_skipped = 0u64;
            let mut found = 0u64;
            let mut block = Vec::new();

            if row_mask & tables.globally_dominated_rows != 0 {
                // Every equal-size pair for this row support is dead; the
                // legacy counters advance by the pair counts they would
                // have seen.
                let equal_size = binomial(cols, support_size);
                tested_legacy = equal_size;
                size_mismatch = all_col_masks - equal_size;
                pairs_skipped = equal_size;
            } else {
                let support_r: Vec<usize> =
                    (0..rows).filter(|&i| row_mask & (1 << i) != 0).collect();
                let filters = RowMaskFilters::build(&tables, cols, row_mask);

                for col_mask in 1u32..(1 << cols) {
                    if col_mask.count_ones() as usize != support_size {
                        size_mismatch += 1;
                        continue;
                    }
                    tested_legacy += 1;
                    if filters.prunes(&tables, row_mask, col_mask) {
                        pairs_skipped += 1;
                        continue;
                    }
                    pairs_tested += 1;
                    let support_c: Vec<usize> =
                        (0..cols).filter(|&j| col_mask & (1 << j) != 0).collect();
                    if let Some(eq) = try_supports(game, &support_r, &support_c) {
                        found += 1;
                        block.push(eq);
                    }
                }
            }

            defender_obs::counter!("game.support_enum.pruned_size_mismatch").add(size_mismatch);
            defender_obs::counter!("game.support_enum.supports_tested").add(tested_legacy);
            defender_obs::counter!("game.support_enum.equilibria_found").add(found);
            defender_obs::counter!("se.pairs_tested").add(pairs_tested);
            defender_obs::counter!("se.pairs_skipped").add(pairs_skipped);
            block
        });
    blocks.into_iter().flatten().collect()
}

/// The pre-pruning sweep: every equal-size support pair goes straight to
/// [`try_supports`]. Emits no counters. Kept as the differential oracle
/// for the pruned enumeration; not part of the public API surface.
#[doc(hidden)]
#[must_use]
pub fn enumerate_equilibria_unpruned(game: &TwoPlayerMatrixGame) -> Vec<BimatrixEquilibrium> {
    let rows = game.rows();
    let cols = game.cols();
    assert!(
        rows <= MAX_STRATEGIES && cols <= MAX_STRATEGIES,
        "support enumeration limited to {MAX_STRATEGIES} strategies per player"
    );
    let mut out = Vec::new();
    for row_mask in 1u32..(1 << rows) {
        let support_r: Vec<usize> = (0..rows).filter(|&i| row_mask & (1 << i) != 0).collect();
        for col_mask in 1u32..(1 << cols) {
            let support_c: Vec<usize> = (0..cols).filter(|&j| col_mask & (1 << j) != 0).collect();
            if support_r.len() != support_c.len() {
                continue;
            }
            if let Some(eq) = try_supports(game, &support_r, &support_c) {
                out.push(eq);
            }
        }
    }
    out
}

/// Finds the supports of *one* equilibrium — the smallest-support,
/// smallest-mask equilibrium the equal-size sweep reaches first — and
/// stops there. Sequential and deterministic: no pool fan-out, supports
/// scanned by size and then by mask order, so the answer is a pure
/// function of the matrix.
///
/// The customer is LP warm-starting (`solve_zero_sum_hinted`): for a
/// zero-sum game any equilibrium's supports pin an optimal basis via
/// complementary slackness, so the cheapest one to find is as good as
/// any. Candidate pairs run through the same [`PruneTables`] pre-filter
/// as the full enumeration (pruned pairs provably carry no equilibrium,
/// so the first survivor to verify is still the overall first) —
/// without it the scan would solve more linear systems than the warm
/// start saves in pivots. Pairs whose indifference systems were
/// actually solved are counted under `se.hint.pairs_tested`, successes
/// under `se.hint.found`. Returns `None` when the game is too large
/// ([`MAX_STRATEGIES`] per side) or only unequal-support (degenerate)
/// equilibria exist — callers fall back to a cold solve.
#[must_use]
pub fn first_equilibrium_supports(game: &TwoPlayerMatrixGame) -> Option<(Vec<usize>, Vec<usize>)> {
    let rows = game.rows();
    let cols = game.cols();
    if rows > MAX_STRATEGIES || cols > MAX_STRATEGIES {
        return None;
    }
    let _span = defender_obs::span!("first_equilibrium_supports");
    let tables = PruneTables::build(game);
    let mut pairs_tested = 0u64;
    for size in 1..=rows.min(cols) {
        for row_mask in 1u32..(1 << rows) {
            if row_mask.count_ones() as usize != size
                || row_mask & tables.globally_dominated_rows != 0
            {
                continue;
            }
            let support_r: Vec<usize> = (0..rows).filter(|&i| row_mask & (1 << i) != 0).collect();
            let filters = RowMaskFilters::build(&tables, cols, row_mask);
            for col_mask in 1u32..(1 << cols) {
                if col_mask.count_ones() as usize != size
                    || filters.prunes(&tables, row_mask, col_mask)
                {
                    continue;
                }
                let support_c: Vec<usize> =
                    (0..cols).filter(|&j| col_mask & (1 << j) != 0).collect();
                pairs_tested += 1;
                if try_supports(game, &support_r, &support_c).is_some() {
                    defender_obs::counter!("se.hint.pairs_tested").add(pairs_tested);
                    defender_obs::counter!("se.hint.found").incr();
                    return Some((support_r, support_c));
                }
            }
        }
    }
    defender_obs::counter!("se.hint.pairs_tested").add(pairs_tested);
    None
}

/// Attempts to place an equilibrium exactly on `(support_r, support_c)`.
fn try_supports(
    game: &TwoPlayerMatrixGame,
    support_r: &[usize],
    support_c: &[usize],
) -> Option<BimatrixEquilibrium> {
    let k = support_r.len();

    // Column mixture y and value v: row player indifferent across R.
    //   Σ_c A[i][c]·y_c − v = 0  (i ∈ R),   Σ_c y_c = 1.
    let y_system: Vec<Vec<Ratio>> = support_r
        .iter()
        .map(|&i| {
            let mut row: Vec<Ratio> = support_c.iter().map(|&j| game.payoff(0, &[i, j])).collect();
            row.push(-Ratio::ONE);
            row
        })
        .chain(std::iter::once({
            let mut row = vec![Ratio::ONE; k];
            row.push(Ratio::ZERO);
            row
        }))
        .collect();
    let mut rhs = vec![Ratio::ZERO; k];
    rhs.push(Ratio::ONE);
    let y_solution = solve_linear(&y_system, &rhs)?;
    #[expect(
        clippy::indexing_slicing,
        reason = "solve_linear returned k + 1 entries for the k+1 system"
    )]
    let (y, v) = (&y_solution[..k], y_solution[k]);

    // Row mixture x and value w: column player indifferent across C.
    let x_system: Vec<Vec<Ratio>> = support_c
        .iter()
        .map(|&j| {
            let mut row: Vec<Ratio> = support_r.iter().map(|&i| game.payoff(1, &[i, j])).collect();
            row.push(-Ratio::ONE);
            row
        })
        .chain(std::iter::once({
            let mut row = vec![Ratio::ONE; k];
            row.push(Ratio::ZERO);
            row
        }))
        .collect();
    let mut rhs = vec![Ratio::ZERO; k];
    rhs.push(Ratio::ONE);
    let x_solution = solve_linear(&x_system, &rhs)?;
    #[expect(
        clippy::indexing_slicing,
        reason = "solve_linear returned k + 1 entries for the k+1 system"
    )]
    let (x, w) = (&x_solution[..k], x_solution[k]);

    // Supports must be played with strictly positive probability (smaller
    // supports are visited by their own iteration).
    if y.iter().any(|&p| p <= Ratio::ZERO) || x.iter().any(|&p| p <= Ratio::ZERO) {
        return None;
    }

    // No profitable deviation outside the supports. The deferred-reduction
    // dot kernel reduces once per deviation row instead of once per term.
    for i in 0..game.rows() {
        if support_r.contains(&i) {
            continue;
        }
        let payoff = Ratio::dot_iter(
            support_c
                .iter()
                .zip(y)
                .map(|(&j, &p)| (game.payoff(0, &[i, j]), p)),
        );
        if payoff > v {
            return None;
        }
    }
    for j in 0..game.cols() {
        if support_c.contains(&j) {
            continue;
        }
        let payoff = Ratio::dot_iter(
            support_r
                .iter()
                .zip(x)
                .map(|(&i, &p)| (game.payoff(1, &[i, j]), p)),
        );
        if payoff > w {
            return None;
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "linsolve returned a verified positive distribution"
    )]
    let row = MixedStrategy::from_entries(support_r.iter().zip(x).map(|(&i, &p)| (i, p)).collect())
        .expect("positive probabilities summing to one");
    #[expect(
        clippy::expect_used,
        reason = "linsolve returned a verified positive distribution"
    )]
    let col = MixedStrategy::from_entries(support_c.iter().zip(y).map(|(&j, &p)| (j, p)).collect())
        .expect("positive probabilities summing to one");
    debug_assert!(nash::verify_two_player(game, &row, &col).is_equilibrium());
    Some(BimatrixEquilibrium {
        row,
        col,
        row_payoff: v,
        col_payoff: w,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(v: i64) -> Ratio {
        Ratio::from(v)
    }

    #[test]
    fn matching_pennies_unique_mixed() {
        let game =
            TwoPlayerMatrixGame::zero_sum(vec![vec![int(1), int(-1)], vec![int(-1), int(1)]]);
        let eqs = enumerate_equilibria(&game);
        assert_eq!(eqs.len(), 1);
        let eq = &eqs[0];
        assert_eq!(eq.row_payoff, Ratio::ZERO);
        assert_eq!(eq.row.probability(&0), Ratio::new(1, 2));
        assert_eq!(eq.col.probability(&1), Ratio::new(1, 2));
    }

    #[test]
    fn prisoners_dilemma_unique_pure() {
        let game = TwoPlayerMatrixGame::new(
            vec![vec![int(3), int(0)], vec![int(5), int(1)]],
            vec![vec![int(3), int(5)], vec![int(0), int(1)]],
        );
        let eqs = enumerate_equilibria(&game);
        assert_eq!(eqs.len(), 1);
        assert!(eqs[0].row.is_pure() && eqs[0].col.is_pure());
        assert_eq!(eqs[0].row_payoff, int(1));
    }

    #[test]
    fn battle_of_the_sexes_three_equilibria() {
        let game = TwoPlayerMatrixGame::new(
            vec![vec![int(2), int(0)], vec![int(0), int(1)]],
            vec![vec![int(1), int(0)], vec![int(0), int(2)]],
        );
        let eqs = enumerate_equilibria(&game);
        assert_eq!(eqs.len(), 3, "two pure + one mixed");
        let mixed = eqs
            .iter()
            .find(|e| !e.row.is_pure())
            .expect("mixed equilibrium");
        assert_eq!(mixed.row.probability(&0), Ratio::new(2, 3));
        assert_eq!(mixed.col.probability(&0), Ratio::new(1, 3));
        assert_eq!(mixed.row_payoff, Ratio::new(2, 3));
    }

    #[test]
    fn every_found_equilibrium_verifies() {
        let game = TwoPlayerMatrixGame::new(
            vec![
                vec![int(4), int(1), int(0)],
                vec![int(2), int(3), int(1)],
                vec![int(0), int(1), int(2)],
            ],
            vec![
                vec![int(1), int(2), int(0)],
                vec![int(0), int(3), int(2)],
                vec![int(3), int(0), int(4)],
            ],
        );
        let eqs = enumerate_equilibria(&game);
        assert!(!eqs.is_empty(), "finite games have equilibria (Nash)");
        for eq in &eqs {
            let report = nash::verify_two_player(&game, &eq.row, &eq.col);
            assert!(report.is_equilibrium(), "{:?}", report.deviations);
            assert_eq!(report.expected_payoffs[0], eq.row_payoff);
            assert_eq!(report.expected_payoffs[1], eq.col_payoff);
        }
    }

    #[test]
    fn zero_sum_equilibria_share_the_value() {
        // Multiple equilibria of a zero-sum game all have the same payoff.
        let game = TwoPlayerMatrixGame::zero_sum(vec![vec![int(1), int(1)], vec![int(1), int(1)]]);
        let eqs = enumerate_equilibria(&game);
        assert!(!eqs.is_empty());
        assert!(eqs.iter().all(|e| e.row_payoff == int(1)));
    }

    #[test]
    fn enumeration_is_identical_for_every_pool_width() {
        let game = TwoPlayerMatrixGame::new(
            vec![
                vec![int(4), int(1), int(0)],
                vec![int(2), int(3), int(1)],
                vec![int(0), int(1), int(2)],
            ],
            vec![
                vec![int(1), int(2), int(0)],
                vec![int(0), int(3), int(2)],
                vec![int(3), int(0), int(4)],
            ],
        );
        defender_par::set_jobs(1);
        let serial = enumerate_equilibria(&game);
        defender_par::set_jobs(4);
        let parallel = enumerate_equilibria(&game);
        defender_par::set_jobs(1);
        assert!(!serial.is_empty());
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.row, b.row);
            assert_eq!(a.col, b.col);
            assert_eq!(a.row_payoff, b.row_payoff);
            assert_eq!(a.col_payoff, b.col_payoff);
        }
    }

    #[test]
    fn first_supports_match_an_enumerated_equilibrium() {
        let game = TwoPlayerMatrixGame::new(
            vec![
                vec![int(4), int(1), int(0)],
                vec![int(2), int(3), int(1)],
                vec![int(0), int(1), int(2)],
            ],
            vec![
                vec![int(1), int(2), int(0)],
                vec![int(0), int(3), int(2)],
                vec![int(3), int(0), int(4)],
            ],
        );
        let (support_r, support_c) =
            first_equilibrium_supports(&game).expect("finite game has an equilibrium");
        let eqs = enumerate_equilibria(&game);
        assert!(
            eqs.iter().any(|e| {
                let mut r: Vec<usize> = e.row.support().into_iter().copied().collect();
                let mut c: Vec<usize> = e.col.support().into_iter().copied().collect();
                r.sort_unstable();
                c.sort_unstable();
                r == support_r && c == support_c
            }),
            "hint {support_r:?}/{support_c:?} must be a real equilibrium's supports"
        );
    }

    #[test]
    fn first_supports_prefer_the_smallest_support() {
        // Prisoner's dilemma: unique pure equilibrium (defect, defect) at
        // supports ({1}, {1}) — found at size 1, masks scanned in order.
        let game = TwoPlayerMatrixGame::new(
            vec![vec![int(3), int(0)], vec![int(5), int(1)]],
            vec![vec![int(3), int(5)], vec![int(0), int(1)]],
        );
        assert_eq!(first_equilibrium_supports(&game), Some((vec![1], vec![1])));
    }

    #[test]
    fn first_supports_none_beyond_the_size_guard() {
        let game = TwoPlayerMatrixGame::zero_sum(vec![vec![Ratio::ZERO; 13]; 13]);
        assert_eq!(first_equilibrium_supports(&game), None);
    }

    #[test]
    #[should_panic(expected = "limited to")]
    fn size_guard() {
        let game = TwoPlayerMatrixGame::zero_sum(vec![vec![Ratio::ZERO; 13]; 13]);
        let _ = enumerate_equilibria(&game);
    }
}
