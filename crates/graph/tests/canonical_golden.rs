//! Pins `canonical_form` output. Each line of
//! `golden/canonical_forms.txt` holds an input graph in graph6, its
//! canonical key, and its relabel (comma-separated), written by the
//! unpruned individualization–refinement search. The corpus is the
//! generator families (C5–C30, P6, stars, wheels, K4–K12, K2,3–K6,6,
//! grids, ladders, Q3–Q5, Petersen, circulants), the 4×4 and 5×5 rook's
//! graphs, Paley 13 and 17, two disjoint Petersens, seeded 3-regular and
//! G(n, 0.4) graphs on 4–12 vertices, and two random relabelings of each
//! (270 lines). The last 16 lines come from a seeded corpus of circulants,
//! products, unions and random regular graphs: on them, a search that
//! prunes with automorphisms which move a node's individualized prefix
//! returns other relabels.
//!
//! A changed key turns every class of a persisted cache sidecar into a
//! miss, and the relabel decides which labelling of a memoized
//! equilibrium a hit returns, so both must stay byte for byte.

use defender_graph::canonical::canonical_form;
use defender_graph::graph6::from_graph6;

const GOLDEN: &str = include_str!("golden/canonical_forms.txt");

#[test]
fn canonical_keys_and_relabels_match_the_golden_forms() {
    let mut checked = 0;
    for (line_no, line) in GOLDEN.lines().enumerate() {
        let fields: Vec<&str> = line.split(' ').collect();
        let [input, key, relabel] = fields[..] else {
            panic!("line {}: expected three fields", line_no + 1);
        };
        let graph = from_graph6(input).expect("fixture input is valid graph6");
        let relabel: Vec<usize> = relabel
            .split(',')
            .map(|c| c.parse().expect("relabel entry"))
            .collect();
        let form = canonical_form(&graph);
        assert_eq!(form.key(), key, "line {}: key of {input}", line_no + 1);
        assert_eq!(
            form.relabel(),
            relabel,
            "line {}: relabel of {input}",
            line_no + 1
        );
        checked += 1;
    }
    assert_eq!(checked, 286, "the fixture holds 286 graphs");
}
