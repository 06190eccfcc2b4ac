//! `defender generate` — write a graph family to an edge-list file.

use defender_num::rng::StdRng;

use defender_graph::{generators, Graph};

use crate::args::Options;
use crate::edgelist;

/// The options this command reads, on top of the ones every command takes.
pub const OPTIONS: &[&str] = &[
    "family", "seed", "n", "leaves", "a", "b", "rows", "cols", "dim", "p", "out",
];

/// Builds the requested family (pure function, testable without IO).
pub fn build(options: &Options) -> Result<Graph, String> {
    let family = options.required("family")?;
    let seed: u64 = options.parse_or("seed", 2006)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let graph = match family {
        "path" => generators::path(options.required_parse("n")?),
        "cycle" => generators::cycle(options.required_parse("n")?),
        "star" => generators::star(options.required_parse("leaves")?),
        "wheel" => generators::wheel(options.required_parse("n")?),
        "complete" => generators::complete(options.required_parse("n")?),
        "complete-bipartite" => generators::complete_bipartite(
            options.required_parse("a")?,
            options.required_parse("b")?,
        ),
        "grid" => generators::grid(
            options.required_parse("rows")?,
            options.required_parse("cols")?,
        ),
        "hypercube" => generators::hypercube(options.required_parse("dim")?),
        "petersen" => generators::petersen(),
        "ladder" => generators::ladder(options.required_parse("n")?),
        "tree" => generators::random_tree(options.required_parse("n")?, &mut rng),
        "gnp" => generators::gnp_connected(
            options.required_parse("n")?,
            options.required_parse("p")?,
            &mut rng,
        ),
        "bipartite" => generators::random_bipartite(
            options.required_parse("a")?,
            options.required_parse("b")?,
            options.required_parse("p")?,
            &mut rng,
        ),
        other => return Err(format!("unknown family `{other}`")),
    };
    Ok(graph)
}

/// Runs the subcommand.
pub fn run(options: &Options) -> Result<(), String> {
    let graph = build(options)?;
    let out = options.required("out")?;
    edgelist::write(std::path::Path::new(out), &graph)?;
    println!(
        "wrote {}: {} vertices, {} edges",
        out,
        graph.vertex_count(),
        graph.edge_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn options(parts: &[&str]) -> Options {
        let argv: Vec<String> = parts.iter().map(ToString::to_string).collect();
        Options::parse(&argv, OPTIONS).unwrap()
    }

    #[test]
    fn builds_every_family() {
        for parts in [
            vec!["--family", "path", "--n", "5"],
            vec!["--family", "cycle", "--n", "5"],
            vec!["--family", "star", "--leaves", "4"],
            vec!["--family", "wheel", "--n", "5"],
            vec!["--family", "complete", "--n", "4"],
            vec!["--family", "complete-bipartite", "--a", "2", "--b", "3"],
            vec!["--family", "grid", "--rows", "2", "--cols", "3"],
            vec!["--family", "hypercube", "--dim", "3"],
            vec!["--family", "petersen"],
            vec!["--family", "ladder", "--n", "3"],
            vec!["--family", "tree", "--n", "9"],
            vec!["--family", "gnp", "--n", "9", "--p", "0.2"],
            vec![
                "--family",
                "bipartite",
                "--a",
                "3",
                "--b",
                "4",
                "--p",
                "0.5",
            ],
        ] {
            let g = build(&options(&parts)).unwrap_or_else(|e| panic!("{parts:?}: {e}"));
            assert!(g.vertex_count() > 0);
        }
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = build(&options(&[
            "--family", "gnp", "--n", "12", "--p", "0.3", "--seed", "5",
        ]))
        .unwrap();
        let b = build(&options(&[
            "--family", "gnp", "--n", "12", "--p", "0.3", "--seed", "5",
        ]))
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn unknown_family_rejected() {
        assert!(build(&options(&["--family", "moebius"])).is_err());
    }

    #[test]
    fn missing_params_reported() {
        let err = build(&options(&["--family", "grid", "--rows", "2"])).unwrap_err();
        assert!(err.contains("--cols"));
    }
}
