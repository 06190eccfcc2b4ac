//! Pins the `defender-cache/v1` sidecar bytes. `golden/equilibria.json`
//! holds the memo of C5, P6, K4 and the Petersen graph at k = 1 and 2
//! (ν = 1); the writer must reproduce it byte for byte, both from fresh
//! solves and from a store loaded out of the file itself.

use std::fs;
use std::io;
use std::path::PathBuf;

use defender_cache::{EquilibriumCache, SIDECAR_FILE};
use defender_core::model::TupleGame;
use defender_graph::generators;

const GOLDEN: &str = include_str!("golden/equilibria.json");

/// A fresh directory for one test (tests in this binary run in parallel).
fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "defender-cache-golden-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn persist_reproduces_the_golden_sidecar() {
    let dir = scratch_dir("solve");
    let cache = EquilibriumCache::open(&dir).expect("open");
    for graph in [
        generators::cycle(5),
        generators::path(6),
        generators::complete(4),
        generators::petersen(),
    ] {
        for k in [1, 2] {
            let game = TupleGame::new(&graph, k, 1).expect("game");
            cache.solve(&game, 100_000).expect("solve");
        }
    }
    cache.persist().expect("persist");
    let written = fs::read_to_string(dir.join(SIDECAR_FILE)).expect("read sidecar");
    assert!(written == GOLDEN, "sidecar bytes changed:\n{written}");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn a_loaded_golden_sidecar_persists_unchanged() {
    let dir = scratch_dir("reload");
    fs::write(dir.join(SIDECAR_FILE), GOLDEN).expect("write fixture");
    let cache = EquilibriumCache::open(&dir).expect("open");
    assert_eq!(cache.len(), 8);
    cache.persist().expect("persist");
    let written = fs::read_to_string(dir.join(SIDECAR_FILE)).expect("read sidecar");
    assert!(
        written == GOLDEN,
        "round trip changed the bytes:\n{written}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A tuple must have exactly `k` edges. A hand-edited one of another
/// width is refused at open, like any other malformed entry, rather
/// than recomputed on first use.
#[test]
fn a_tuple_of_the_wrong_width_is_refused_at_open() {
    for (name, from, to) in [
        // K4 at k = 1: one tuple widened to two edges.
        (
            "wide",
            r#"{"edges": [[0, 3]], "p": "1/2"}"#,
            r#"{"edges": [[0, 3], [1, 2]], "p": "1/2"}"#,
        ),
        // K4 at k = 2: its only tuple cut to one edge.
        (
            "narrow",
            r#"{"edges": [[0, 1], [2, 3]], "p": "1"}"#,
            r#"{"edges": [[0, 1]], "p": "1"}"#,
        ),
    ] {
        assert_eq!(GOLDEN.matches(from).count(), 1, "{name}: edit one tuple");
        let dir = scratch_dir(name);
        fs::write(dir.join(SIDECAR_FILE), GOLDEN.replacen(from, to, 1)).expect("write");
        let err = EquilibriumCache::open(&dir).expect_err("a wrong-width tuple must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}");
        assert!(err.to_string().contains("not k ="), "{name}: {err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
