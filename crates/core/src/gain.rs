//! Defender gain and quality of protection — the quantities behind the
//! paper's headline result ("the gain of the defender is linear in `k`").

use defender_num::Ratio;

use crate::model::{MixedConfig, TupleGame};
use crate::payoff;

/// The defender's expected gain `IP_tp(s)` under any mixed configuration
/// (equation (2)): the expected number of arrested attackers.
#[must_use]
pub fn defender_gain(game: &TupleGame<'_>, config: &MixedConfig) -> Ratio {
    payoff::expected_ip_tuple_player(game, config)
}

/// Quality of protection: the probability that a given attacker is caught,
/// `IP_tp / ν ∈ [0, 1]`. For a k-matching NE this is `k / |IS|`.
///
/// Returns zero when `ν = 0` (nothing to protect against).
#[must_use]
pub fn quality_of_protection(game: &TupleGame<'_>, config: &MixedConfig) -> Ratio {
    if game.attacker_count() == 0 {
        return Ratio::ZERO;
    }
    // divisor nonzero: attacker_count >= 1: zero case returned early above
    defender_gain(game, config) / Ratio::from(game.attacker_count())
}

/// Closed form of Corollary 4.10 for a k-matching NE: `k·ν / |IS|`.
/// Exposed so experiments can compare measured against predicted.
#[must_use]
pub fn predicted_k_matching_gain(k: usize, attackers: usize, is_size: usize) -> Ratio {
    // divisor nonzero: is_size >= 1 for any independent set realizing the bound
    Ratio::from(k) * Ratio::from(attackers) / Ratio::from(is_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartite::a_tuple_bipartite;
    use crate::model::TupleGame;
    use defender_graph::generators;

    #[test]
    fn gain_matches_closed_form_across_k() {
        let g = generators::complete_bipartite(3, 5); // IS = 5 (larger side)
        let nu = 7;
        for k in 1..=5usize {
            let game = TupleGame::new(&g, k, nu).unwrap();
            let ne = a_tuple_bipartite(&game).unwrap();
            assert_eq!(
                defender_gain(&game, ne.config()),
                predicted_k_matching_gain(k, nu, 5),
                "k = {k}"
            );
            assert_eq!(
                quality_of_protection(&game, ne.config()),
                Ratio::from(k) / Ratio::from(5)
            );
        }
    }

    #[test]
    fn quality_is_a_probability_when_k_below_is() {
        let g = generators::complete_bipartite(2, 6);
        for k in 1..=6usize {
            let game = TupleGame::new(&g, k, 3).unwrap();
            let ne = a_tuple_bipartite(&game).unwrap();
            let q = quality_of_protection(&game, ne.config());
            assert!(q.is_probability(), "k = {k}: q = {q}");
        }
    }

    #[test]
    fn full_protection_at_k_equals_is() {
        // k = |IS|: every attacker caught with probability 1.
        let g = generators::complete_bipartite(2, 4);
        let game = TupleGame::new(&g, 4, 5).unwrap();
        let ne = a_tuple_bipartite(&game).unwrap();
        assert_eq!(quality_of_protection(&game, ne.config()), Ratio::ONE);
        assert_eq!(defender_gain(&game, ne.config()), Ratio::from(5));
    }
}
