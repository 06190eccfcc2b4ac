//! `defender analyze` — full equilibrium report for one instance.

use defender_core::bipartite::a_tuple_bipartite_report;
use defender_core::characterization::{verify_mixed_ne, VerificationMode};
use defender_core::covering_ne::covering_ne;
use defender_core::gain::quality_of_protection;
use defender_core::model::TupleGame;
use defender_core::pure::{pure_ne_existence, PureNeOutcome};
use defender_core::tree::a_tuple_tree_report;
use defender_core::CoreError;
use defender_graph::{properties, Graph};
use defender_num::Ratio;

use crate::args::Options;
use crate::edgelist;

/// The analysis as a string (pure function, testable without IO).
pub fn report(graph: &Graph, k: usize, nu: usize) -> Result<String, String> {
    use std::fmt::Write as _;
    let game = TupleGame::new(graph, k, nu).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "instance: n = {}, m = {}, k = {k}, nu = {nu}",
        graph.vertex_count(),
        graph.edge_count()
    );
    let bipartite = properties::is_bipartite(graph);
    let tree = defender_matching::tree::is_forest(graph);
    let _ = writeln!(out, "structure: bipartite = {bipartite}, forest = {tree}");

    // Pure equilibria (Theorem 3.1).
    match pure_ne_existence(&game) {
        PureNeOutcome::Exists { cover, .. } => {
            let _ = writeln!(
                out,
                "pure NE: EXISTS (defender plays the {}-edge cover {cover:?})",
                cover.len()
            );
        }
        PureNeOutcome::None { min_cover_size } => {
            let _ = writeln!(
                out,
                "pure NE: none (minimum edge cover needs {min_cover_size} > {k} edges)"
            );
        }
    }

    // Mixed structural equilibria.
    let mixed = if tree {
        a_tuple_tree_report(&game)
    } else {
        a_tuple_bipartite_report(&game)
    };
    match mixed {
        Ok(report) => {
            let ne = &report.ne;
            let check = verify_mixed_ne(&game, ne.config(), VerificationMode::Auto)
                .map_err(|e| e.to_string())?;
            let _ = writeln!(
                out,
                "k-matching NE: verified = {}, quality of protection {}",
                check.is_equilibrium(),
                quality_of_protection(&game, ne.config()),
            );
            let _ = writeln!(out, "{report}");
            let _ = writeln!(
                out,
                "attacker view: escape probability {}",
                Ratio::ONE - ne.hit_probability()
            );
        }
        Err(CoreError::TupleWiderThanSupport { support_size, .. }) => {
            let _ = writeln!(
                out,
                "k-matching NE: none — k = {k} exceeds |IS| = {support_size}"
            );
        }
        Err(CoreError::Graph(defender_graph::GraphError::NotBipartite)) => {
            let _ = writeln!(out, "k-matching NE: not available (graph is not bipartite)");
        }
        Err(e) => {
            let _ = writeln!(out, "k-matching NE: not available ({e})");
        }
    }
    match covering_ne(&game) {
        Ok(ne) => {
            let _ = writeln!(
                out,
                "covering NE (perfect matching): {} tuples, defender gain = {}",
                ne.tuple_count(),
                ne.defender_gain()
            );
        }
        Err(e) => {
            let _ = writeln!(out, "covering NE: not available ({e})");
        }
    }
    Ok(out)
}

/// The options this command reads, on top of the ones every command takes.
pub const OPTIONS: &[&str] = &["graph", "k", "nu"];

/// Runs the subcommand.
pub fn run(options: &Options) -> Result<(), String> {
    let graph = edgelist::read(std::path::Path::new(options.required("graph")?))?;
    let k: usize = options.required_parse("k")?;
    let nu: usize = options.required_parse("nu")?;
    print!("{}", report(&graph, k, nu)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::generators;

    #[test]
    fn bipartite_report_mentions_everything() {
        let g = generators::cycle(8);
        let text = report(&g, 2, 4).unwrap();
        assert!(text.contains("pure NE: none"));
        assert!(text.contains("A_tuple: |IS| = 4"));
        assert!(text.contains("verified = true"));
        assert!(text.contains("step 1: matching NE"));
        assert!(text.contains("covering NE (perfect matching)"));
    }

    #[test]
    fn non_bipartite_report_degrades_gracefully() {
        let g = generators::petersen();
        let text = report(&g, 2, 4).unwrap();
        assert!(text.contains("not bipartite"));
        assert!(
            text.contains("covering NE (perfect matching)"),
            "Petersen has a PM"
        );
    }

    #[test]
    fn tree_route_is_used() {
        let g = generators::star(5);
        let text = report(&g, 2, 3).unwrap();
        assert!(text.contains("forest = true"));
        assert!(text.contains("A_tuple: |IS| = 5"));
        assert!(text.contains("covering NE: not available"));
    }

    #[test]
    fn pure_ne_reported_when_k_large() {
        let g = generators::cycle(6);
        let text = report(&g, 3, 2).unwrap();
        assert!(text.contains("pure NE: EXISTS"));
    }

    #[test]
    fn invalid_width_surfaces() {
        let g = generators::path(3);
        assert!(report(&g, 9, 1).is_err());
    }
}
