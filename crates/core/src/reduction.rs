//! The two-way polynomial-time reduction of Theorem 4.5 between matching
//! Nash equilibria of `Π_1(G)` and k-matching Nash equilibria of `Π_k(G)`.
//!
//! - [`restrict_to_matching`] (Lemma 4.6): flatten the support tuples to
//!   their edge set and play uniformly — a matching NE of the Edge model.
//! - [`expand_to_k_matching`] (Lemma 4.8): label the matching NE's support
//!   edges `e_0 … e_{E−1}` and slide a width-`k` window cyclically,
//!   collecting `δ = E / gcd(E, k)` tuples; every edge lands in exactly
//!   `k / gcd(E, k)` of them (Claim 4.9), so condition (3) of
//!   Definition 4.1 holds.
//!
//! The gain transforms by exactly the factor `k` in both directions
//! (Corollaries 4.7 and 4.10): `IP_tp(Π_k) = k · IP_tp(Π_1)` — the paper's
//! headline "power of the defender".

use defender_num::{gcd, Ratio};

use crate::k_matching::{k_matching_ne_from_config, KMatchingConfig, KMatchingNe};
use crate::matching_ne::{matching_ne_from_config, MatchingConfig, MatchingNe};
use crate::model::TupleGame;
use crate::tuple::Tuple;
use crate::CoreError;

/// Lemma 4.6: from a k-matching NE of `Π_k(G)`, a matching NE of `Π_1(G)`.
///
/// `D'(VP) := D(VP)`, `D'(tp) := E(D(tp))`, uniform distributions. Runs in
/// `O(|D(tp)|·k + n)`.
///
/// # Errors
///
/// Propagates shape errors when `edge_game` is not `Π_1` over the same
/// graph (i.e. [`CoreError::NotEdgeModel`]).
pub fn restrict_to_matching(
    edge_game: &TupleGame<'_>,
    ne: &KMatchingNe,
) -> Result<MatchingNe, CoreError> {
    let supports = MatchingConfig {
        vp_support: ne.supports().vp_support.clone(),
        tp_support: ne.supports().support_edges(),
    };
    matching_ne_from_config(edge_game, supports)
}

/// Lemma 4.8: from a matching NE of `Π_1(G)`, a k-matching NE of `Π_k(G)`
/// via the cyclic window construction.
///
/// # Errors
///
/// - [`CoreError::TupleWiderThanSupport`] when `k` exceeds the matching
///   NE's support size `E_num` — a tuple of `k` *distinct* edges cannot be
///   drawn from fewer (DESIGN.md §5.2; the paper's construction would
///   repeat edges here);
/// - k-matching validation errors (never expected for well-formed input —
///   they would indicate a broken invariant upstream).
pub fn expand_to_k_matching(
    tuple_game: &TupleGame<'_>,
    ne: &MatchingNe,
) -> Result<KMatchingNe, CoreError> {
    let k = tuple_game.k();
    let labeled = &ne.supports().tp_support;
    let e_num = labeled.len();
    if k > e_num {
        return Err(CoreError::TupleWiderThanSupport {
            k,
            support_size: e_num,
        });
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "cyclic windows index 0..E_num = labeled.len() by construction"
    )]
    #[expect(
        clippy::expect_used,
        reason = "cyclic windows with k <= E_num are distinct edges"
    )]
    let tuples = cyclic_tuples(e_num, k)
        .into_iter()
        .map(|window| {
            Tuple::new(window.into_iter().map(|i| labeled[i]).collect())
                .expect("cyclic windows with k ≤ E_num have distinct edges")
        })
        .collect();
    let supports = KMatchingConfig {
        vp_support: ne.supports().vp_support.clone(),
        tuples,
    };
    k_matching_ne_from_config(tuple_game, supports)
}

/// The index windows of the cyclic construction: window `i` (0-based)
/// covers positions `i·k, i·k + 1, …, i·k + k − 1 (mod E_num)`, for
/// `i = 0 … δ − 1` with `δ = E_num / gcd(E_num, k)`.
///
/// # Panics
///
/// Panics if `k == 0` or `k > e_num`.
#[must_use]
pub fn cyclic_tuples(e_num: usize, k: usize) -> Vec<Vec<usize>> {
    assert!(
        k >= 1 && k <= e_num,
        "cyclic construction needs 1 ≤ k ≤ E_num"
    );
    let delta = support_tuple_count(e_num, k);
    #[expect(
        clippy::integer_division_remainder_used,
        reason = "e_num >= k >= 1 asserted above"
    )]
    (0..delta)
        .map(|i| (0..k).map(|j| (i * k + j) % e_num).collect())
        .collect()
}

/// `δ = E_num / gcd(E_num, k)` — the number of tuples the construction
/// emits (the minimum achieving equal edge multiplicities, per Lemma 4.8).
#[must_use]
#[expect(
    clippy::integer_division_remainder_used,
    reason = "gcd with positive k is >= 1"
)]
pub fn support_tuple_count(e_num: usize, k: usize) -> usize {
    e_num / gcd(e_num as u128, k as u128) as usize
}

/// Claim 4.9: each support edge belongs to exactly `k / gcd(E_num, k)`
/// tuples of the construction.
#[must_use]
#[expect(
    clippy::integer_division_remainder_used,
    reason = "gcd with positive k is >= 1"
)]
pub fn per_edge_multiplicity(e_num: usize, k: usize) -> usize {
    k / gcd(e_num as u128, k as u128) as usize
}

/// Theorem 4.5, gain statement: the ratio `IP_tp(Π_k) / IP_tp(Π_1)` of the
/// two equilibria. Equals `k` exactly for every matching/k-matching pair
/// produced by the reduction (Corollaries 4.7 and 4.10).
#[must_use]
pub fn gain_ratio(k_ne: &KMatchingNe, edge_ne: &MatchingNe) -> Ratio {
    // divisor nonzero: matching-NE defender gain is positive (Theorem 3.1)
    k_ne.defender_gain() / edge_ne.defender_gain()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterization::{verify_mixed_ne, VerificationMode};
    use crate::matching_ne::algorithm_a;
    use defender_graph::{generators, VertexId};

    fn even_cycle_matching_ne(game: &TupleGame<'_>, n: usize) -> MatchingNe {
        let is: Vec<VertexId> = (0..n).step_by(2).map(VertexId::new).collect();
        let vc: Vec<VertexId> = (0..n).skip(1).step_by(2).map(VertexId::new).collect();
        algorithm_a(game, &is, &vc).unwrap()
    }

    #[test]
    fn cyclic_windows_match_the_paper() {
        // E_num = 4, k = 2: gcd = 2, δ = 2: windows {0,1}, {2,3}.
        assert_eq!(cyclic_tuples(4, 2), vec![vec![0, 1], vec![2, 3]]);
        // E_num = 4, k = 3: gcd = 1, δ = 4 — wraps around.
        assert_eq!(
            cyclic_tuples(4, 3),
            vec![vec![0, 1, 2], vec![3, 0, 1], vec![2, 3, 0], vec![1, 2, 3]]
        );
        // k = E_num: a single all-edges tuple.
        assert_eq!(cyclic_tuples(3, 3), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn claim_4_9_multiplicities() {
        for e_num in 1..=12usize {
            for k in 1..=e_num {
                let windows = cyclic_tuples(e_num, k);
                assert_eq!(windows.len(), support_tuple_count(e_num, k));
                let mut counts = vec![0usize; e_num];
                for w in &windows {
                    let mut sorted = w.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), k, "distinct within a window");
                    for &i in w {
                        counts[i] += 1;
                    }
                }
                let expected = per_edge_multiplicity(e_num, k);
                assert!(
                    counts.iter().all(|&c| c == expected),
                    "E = {e_num}, k = {k}: counts {counts:?}, expected {expected}"
                );
            }
        }
    }

    #[test]
    fn expand_then_verify_on_c8() {
        let g = generators::cycle(8);
        let nu = 6;
        let edge_game = TupleGame::edge_model(&g, nu).unwrap();
        let edge_ne = even_cycle_matching_ne(&edge_game, 8);
        for k in 1..=4usize {
            let game_k = TupleGame::new(&g, k, nu).unwrap();
            let kne = expand_to_k_matching(&game_k, &edge_ne).unwrap();
            let report = verify_mixed_ne(&game_k, kne.config(), VerificationMode::Auto).unwrap();
            assert!(report.is_equilibrium(), "k = {k}: {:?}", report.failures());
            assert_eq!(
                gain_ratio(&kne, &edge_ne),
                Ratio::from(k),
                "Theorem 4.5 gain"
            );
            assert_eq!(kne.tuple_count(), support_tuple_count(4, k));
        }
    }

    #[test]
    fn expand_rejects_k_beyond_support() {
        // C4's matching NE has E_num = |IS| = 2 support edges; k = 3 ≤ m = 4
        // is a legal game width but the construction cannot serve it.
        let g = generators::cycle(4);
        let edge_game = TupleGame::edge_model(&g, 2).unwrap();
        let edge_ne = even_cycle_matching_ne(&edge_game, 4);
        let game_k = TupleGame::new(&g, 3, 2).unwrap();
        let err = expand_to_k_matching(&game_k, &edge_ne).unwrap_err();
        assert_eq!(
            err,
            CoreError::TupleWiderThanSupport {
                k: 3,
                support_size: 2
            }
        );
    }

    #[test]
    fn round_trip_k_to_1_to_k() {
        let g = generators::cycle(8);
        let nu = 4;
        let edge_game = TupleGame::edge_model(&g, nu).unwrap();
        let edge_ne = even_cycle_matching_ne(&edge_game, 8);
        let game_k = TupleGame::new(&g, 3, nu).unwrap();
        let kne = expand_to_k_matching(&game_k, &edge_ne).unwrap();

        // Lemma 4.6 back to the Edge model.
        let back = restrict_to_matching(&edge_game, &kne).unwrap();
        assert_eq!(
            back.supports(),
            edge_ne.supports(),
            "supports are preserved"
        );
        assert_eq!(back.defender_gain(), edge_ne.defender_gain());

        // And forward again: identical k-matching supports.
        let forward = expand_to_k_matching(&game_k, &back).unwrap();
        assert_eq!(forward.supports(), kne.supports());
    }

    #[test]
    fn restriction_from_handcrafted_k_ne() {
        use defender_graph::EdgeId;
        let g = generators::cycle(4);
        let game2 = TupleGame::new(&g, 2, 2).unwrap();
        let kcfg = crate::k_matching::KMatchingConfig {
            vp_support: vec![VertexId::new(0), VertexId::new(2)],
            tuples: vec![Tuple::new(vec![EdgeId::new(0), EdgeId::new(3)]).unwrap()],
        };
        let kne = k_matching_ne_from_config(&game2, kcfg).unwrap();
        let edge_game = TupleGame::edge_model(&g, 2).unwrap();
        let mne = restrict_to_matching(&edge_game, &kne).unwrap();
        assert_eq!(mne.supports().tp_support.len(), 2);
        assert_eq!(kne.defender_gain(), mne.defender_gain() * Ratio::from(2));
        let report = verify_mixed_ne(&edge_game, mne.config(), VerificationMode::Auto).unwrap();
        assert!(report.is_equilibrium(), "{:?}", report.failures());
    }

    #[test]
    fn gain_is_linear_in_k_across_families() {
        // The headline result, checked on stars and complete bipartite.
        let star = generators::star(5);
        let nu = 10;
        let edge_game = TupleGame::edge_model(&star, nu).unwrap();
        let is: Vec<VertexId> = (1..=5).map(VertexId::new).collect();
        let vc = vec![VertexId::new(0)];
        let edge_ne = algorithm_a(&edge_game, &is, &vc).unwrap();
        assert_eq!(edge_ne.defender_gain(), Ratio::new(10, 5));
        for k in 1..=5usize {
            let game_k = TupleGame::new(&star, k, nu).unwrap();
            let kne = expand_to_k_matching(&game_k, &edge_ne).unwrap();
            assert_eq!(
                kne.defender_gain(),
                Ratio::from(k) * Ratio::new(10, 5),
                "k = {k}"
            );
        }
    }
}
