//! `defender value` — exact game value on an arbitrary graph via the
//! rational LP (single-attacker zero-sum reduction).

use defender_cache::EquilibriumCache;
use defender_core::bipartite::a_tuple_bipartite_report;
use defender_core::defense::defense_ratio_lower_bound;
use defender_core::model::TupleGame;
use defender_core::solve::solve_exact;
use defender_graph::Graph;

use crate::args::Options;
use crate::edgelist;

/// The value report as a string (pure function, testable without IO).
/// With a cache, the solve routes through the canonical-form memo — the
/// report text is identical either way.
pub fn report(
    graph: &Graph,
    k: usize,
    limit: usize,
    cache: Option<&EquilibriumCache>,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let game = TupleGame::new(graph, k, 1).map_err(|e| e.to_string())?;
    let exact = match cache {
        Some(cache) => cache.solve(&game, limit),
        None => solve_exact(&game, limit),
    }
    .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exact game value (catch probability): {} = {:.6}",
        exact.value,
        exact.value.to_f64()
    );
    let _ = writeln!(
        out,
        "optimal attacker support: {:?}",
        exact.config.vp_support_union()
    );
    let _ = writeln!(
        out,
        "optimal defender support: {} tuples over edges {:?}",
        exact.config.tp_support().len(),
        exact.config.support_edges()
    );
    let _ = writeln!(
        out,
        "defense ratio 1/value = {}; universal lower bound n/(2k) = {}",
        exact
            .value
            .recip()
            .map(|r| r.to_string())
            .unwrap_or_else(|_| "∞".into()),
        defense_ratio_lower_bound(&game)
    );
    // Structural cross-check: on bipartite instances the constructive
    // A_tuple equilibrium must reproduce the LP's hit probability.
    if let Ok(structural) = a_tuple_bipartite_report(&game) {
        let _ = writeln!(out, "structural cross-check — {}", structural.summary());
        let agrees = structural.ne.hit_probability() == exact.value;
        let _ = writeln!(out, "structural hit probability matches LP value: {agrees}");
    }
    Ok(out)
}

/// The options this command reads, on top of the ones every command takes.
pub const OPTIONS: &[&str] = &["graph", "k", "limit", "cache"];

/// Runs the subcommand.
pub fn run(options: &Options) -> Result<(), String> {
    let graph = edgelist::read(std::path::Path::new(options.required("graph")?))?;
    let k: usize = options.required_parse("k")?;
    let limit: usize = options.parse_or("limit", 200_000)?;
    let cache = options
        .get("cache")
        .map(|dir| EquilibriumCache::open(std::path::Path::new(dir)).map_err(|e| e.to_string()))
        .transpose()?;
    print!("{}", report(&graph, k, limit, cache.as_ref())?);
    if let Some(cache) = &cache {
        cache.persist().map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::generators;

    #[test]
    fn odd_cycle_value() {
        let g = generators::cycle(5);
        let text = report(&g, 1, 100_000, None).unwrap();
        assert!(text.contains("2/5"), "{text}");
        assert!(text.contains("lower bound n/(2k) = 5/2"));
        // Odd cycle: no bipartite structural route, so no cross-check line.
        assert!(!text.contains("structural cross-check"));
    }

    #[test]
    fn bipartite_value_cross_checks_structural_route() {
        let g = generators::cycle(6);
        let text = report(&g, 1, 100_000, None).unwrap();
        assert!(
            text.contains("structural cross-check — A_tuple: |IS| = 3"),
            "{text}"
        );
        assert!(
            text.contains("structural hit probability matches LP value: true"),
            "{text}"
        );
    }

    #[test]
    fn cached_report_matches_the_direct_report() {
        let dir = std::env::temp_dir().join(format!("cli-value-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let g = generators::cycle(5);
        let direct = report(&g, 1, 100_000, None).unwrap();
        let cache = EquilibriumCache::open(&dir).unwrap();
        let cold = report(&g, 1, 100_000, Some(&cache)).unwrap();
        let warm = report(&g, 1, 100_000, Some(&cache)).unwrap();
        assert_eq!(direct, cold);
        assert_eq!(direct, warm);
        assert_eq!(cache.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn guard_propagates() {
        let g = generators::complete(9);
        assert!(report(&g, 9, 100, None).is_err());
    }
}
