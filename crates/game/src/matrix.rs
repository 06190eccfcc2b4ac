//! Two-player bimatrix games — small test vehicles for the Nash machinery.

use defender_num::Ratio;

use crate::StrategicGame;

/// A two-player game in bimatrix form: `row_payoff[i][j]` and
/// `col_payoff[i][j]` are the players' payoffs when the row player plays
/// `i` and the column player plays `j`.
///
/// Strategies are row/column indices (`usize`).
#[derive(Clone, Debug)]
pub struct TwoPlayerMatrixGame {
    row_payoff: Vec<Vec<Ratio>>,
    col_payoff: Vec<Vec<Ratio>>,
}

impl TwoPlayerMatrixGame {
    /// Builds a general bimatrix game.
    ///
    /// # Panics
    ///
    /// Panics if the matrices are empty, ragged or differently shaped.
    #[must_use]
    pub fn new(row_payoff: Vec<Vec<Ratio>>, col_payoff: Vec<Vec<Ratio>>) -> TwoPlayerMatrixGame {
        assert!(
            !row_payoff.is_empty(),
            "row player needs at least one strategy"
        );
        let cols = row_payoff.first().map_or(0, Vec::len);
        assert!(cols > 0, "column player needs at least one strategy");
        assert!(
            row_payoff.iter().all(|r| r.len() == cols),
            "row matrix is ragged"
        );
        assert_eq!(
            row_payoff.len(),
            col_payoff.len(),
            "matrices differ in rows"
        );
        assert!(
            col_payoff.iter().all(|r| r.len() == cols),
            "column matrix shape mismatch"
        );
        TwoPlayerMatrixGame {
            row_payoff,
            col_payoff,
        }
    }

    /// Builds a zero-sum game from the row player's payoff matrix.
    ///
    /// # Panics
    ///
    /// Panics under the same shape conditions as [`TwoPlayerMatrixGame::new`].
    #[must_use]
    pub fn zero_sum(row_payoff: Vec<Vec<Ratio>>) -> TwoPlayerMatrixGame {
        let col_payoff = row_payoff
            .iter()
            .map(|row| row.iter().map(|&p| -p).collect())
            .collect();
        TwoPlayerMatrixGame::new(row_payoff, col_payoff)
    }

    /// Number of row strategies.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.row_payoff.len()
    }

    /// Number of column strategies.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.row_payoff.first().map_or(0, Vec::len)
    }
}

impl StrategicGame for TwoPlayerMatrixGame {
    type Strategy = usize;

    fn player_count(&self) -> usize {
        2
    }

    fn strategies(&self, player: usize) -> Vec<usize> {
        match player {
            0 => (0..self.rows()).collect(),
            1 => (0..self.cols()).collect(),
            #[expect(
                clippy::panic,
                reason = "documented two-player contract of the Game trait"
            )]
            _ => panic!("two-player game has players 0 and 1, not {player}"),
        }
    }

    fn payoff(&self, player: usize, profile: &[usize]) -> Ratio {
        #[expect(
            clippy::indexing_slicing,
            reason = "Game contract: a two-player profile has two entries"
        )]
        let (i, j) = (profile[0], profile[1]);
        match player {
            #[expect(
                clippy::indexing_slicing,
                reason = "profile holds strategy indices below rows()/cols()"
            )]
            0 => self.row_payoff[i][j],
            #[expect(
                clippy::indexing_slicing,
                reason = "profile holds strategy indices below rows()/cols()"
            )]
            1 => self.col_payoff[i][j],
            #[expect(
                clippy::panic,
                reason = "documented two-player contract of the Game trait"
            )]
            _ => panic!("two-player game has players 0 and 1, not {player}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(v: i64) -> Ratio {
        Ratio::from(v)
    }

    #[test]
    fn zero_sum_negates() {
        let g = TwoPlayerMatrixGame::zero_sum(vec![vec![r(3), r(-1)], vec![r(0), r(2)]]);
        assert_eq!(g.payoff(0, &[0, 0]), r(3));
        assert_eq!(g.payoff(1, &[0, 0]), r(-3));
        assert_eq!(g.payoff(1, &[0, 1]), r(1));
    }

    #[test]
    fn strategies_enumerate_indices() {
        let g = TwoPlayerMatrixGame::zero_sum(vec![vec![r(0), r(0), r(0)]]);
        assert_eq!(g.strategies(0), vec![0]);
        assert_eq!(g.strategies(1), vec![0, 1, 2]);
        assert_eq!(g.player_count(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_matrix_rejected() {
        let _ = TwoPlayerMatrixGame::zero_sum(vec![vec![r(0)], vec![r(0), r(1)]]);
    }

    #[test]
    #[should_panic(expected = "players 0 and 1")]
    fn third_player_rejected() {
        let g = TwoPlayerMatrixGame::zero_sum(vec![vec![r(0)]]);
        let _ = g.payoff(2, &[0, 0]);
    }
}
