//! `defender convert` — translate between graph file formats.

use crate::args::Options;
use crate::edgelist;

/// The options this command reads, on top of the ones every command takes.
pub const OPTIONS: &[&str] = &["in", "out", "from", "to"];

/// Runs the subcommand.
pub fn run(options: &Options) -> Result<(), String> {
    let input = options.required("in")?;
    let output = options.required("out")?;
    let graph = edgelist::read_format(std::path::Path::new(input), options.get("from"))?;
    edgelist::write_format(std::path::Path::new(output), &graph, options.get("to"))?;
    println!(
        "converted {input} -> {output} ({} vertices, {} edges)",
        graph.vertex_count(),
        graph.edge_count()
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_graph::generators;

    #[test]
    fn edges_to_graph6_and_back() {
        let dir = std::env::temp_dir();
        let edges = dir.join("defender_convert_test.edges");
        let g6 = dir.join("defender_convert_test.g6");
        let original = generators::petersen();
        edgelist::write(&edges, &original).unwrap();

        let options = Options::parse(
            &[
                "--in",
                edges.to_str().unwrap(),
                "--out",
                g6.to_str().unwrap(),
                "--to",
                "graph6",
            ]
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
            OPTIONS,
        )
        .unwrap();
        run(&options).unwrap();

        let back = edgelist::read_format(&g6, Some("graph6")).unwrap();
        assert_eq!(back, original);
        let _ = std::fs::remove_file(edges);
        let _ = std::fs::remove_file(g6);
    }

    #[test]
    fn unknown_format_rejected() {
        let dir = std::env::temp_dir();
        let edges = dir.join("defender_convert_bad.edges");
        edgelist::write(&edges, &generators::path(2)).unwrap();
        let options = Options::parse(
            &[
                "--in",
                edges.to_str().unwrap(),
                "--out",
                "/dev/null",
                "--to",
                "gml",
            ]
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
            OPTIONS,
        )
        .unwrap();
        assert!(run(&options).is_err());
        let _ = std::fs::remove_file(edges);
    }
}
