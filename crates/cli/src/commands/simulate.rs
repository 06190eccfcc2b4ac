//! `defender simulate` — Monte-Carlo play of the computed equilibrium.

use defender_core::bipartite::a_tuple_bipartite;
use defender_core::covering_ne::covering_ne;
use defender_core::model::{MixedConfig, TupleGame};
use defender_core::simulate::{SimulationConfig, Simulator};
use defender_graph::Graph;
use defender_num::Ratio;

use crate::args::Options;
use crate::edgelist;

/// Picks the best available structural equilibrium for the instance:
/// k-matching where the graph is bipartite, otherwise the covering NE.
/// Returns the configuration, its exact gain, and the family name used.
pub fn pick_equilibrium(
    game: &TupleGame<'_>,
) -> Result<(MixedConfig, Ratio, &'static str), String> {
    if let Ok(ne) = a_tuple_bipartite(game) {
        return Ok((ne.config().clone(), ne.defender_gain(), "k-matching"));
    }
    match covering_ne(game) {
        Ok(ne) => Ok((ne.config().clone(), ne.defender_gain(), "covering")),
        Err(e) => Err(format!(
            "no structural equilibrium available for this instance ({e})"
        )),
    }
}

/// The simulation report as a string (pure function, testable without IO).
pub fn report(
    graph: &Graph,
    k: usize,
    nu: usize,
    rounds: u64,
    seed: u64,
) -> Result<String, String> {
    use std::fmt::Write as _;
    let game = TupleGame::new(graph, k, nu).map_err(|e| e.to_string())?;
    let (config, exact_gain, family) = pick_equilibrium(&game)?;
    let outcome = Simulator::new(&game, &config).run(&SimulationConfig { rounds, seed });
    let mut out = String::new();
    let _ = writeln!(
        out,
        "equilibrium family: {family}, exact defender gain = {exact_gain}"
    );
    let _ = writeln!(
        out,
        "simulated {rounds} rounds: mean arrests = {:.4} (error {:.4})",
        outcome.mean_caught,
        outcome.gain_error(exact_gain)
    );
    let mean_escape: f64 = if outcome.escape_frequency.is_empty() {
        0.0
    } else {
        outcome.escape_frequency.iter().sum::<f64>() / outcome.escape_frequency.len() as f64
    };
    let _ = writeln!(out, "mean empirical escape frequency = {mean_escape:.4}");
    Ok(out)
}

/// The options this command reads, on top of the ones every command takes.
pub const OPTIONS: &[&str] = &["graph", "k", "nu", "rounds", "seed"];

/// Runs the subcommand.
pub fn run(options: &Options) -> Result<(), String> {
    let graph = edgelist::read(std::path::Path::new(options.required("graph")?))?;
    let k: usize = options.required_parse("k")?;
    let nu: usize = options.required_parse("nu")?;
    let rounds: u64 = options.parse_or("rounds", 10_000)?;
    let seed: u64 = options.parse_or("seed", 2006)?;
    print!("{}", report(&graph, k, nu, rounds, seed)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::generators;

    #[test]
    fn simulates_bipartite_instance() {
        let g = generators::cycle(8);
        let text = report(&g, 2, 4, 5_000, 7).unwrap();
        assert!(text.contains("k-matching"));
        assert!(text.contains("mean arrests"));
    }

    #[test]
    fn falls_back_to_covering_on_petersen() {
        let g = generators::petersen();
        let text = report(&g, 2, 4, 2_000, 7).unwrap();
        assert!(text.contains("covering"));
    }

    #[test]
    fn reports_when_nothing_applies() {
        // Odd cycle: not bipartite and no perfect matching.
        let g = generators::cycle(5);
        assert!(report(&g, 1, 1, 100, 7).is_err());
    }

    #[test]
    fn simulation_is_reproducible() {
        let g = generators::grid(2, 3);
        let a = report(&g, 2, 3, 2_000, 9).unwrap();
        let b = report(&g, 2, 3, 2_000, 9).unwrap();
        assert_eq!(a, b);
    }
}
