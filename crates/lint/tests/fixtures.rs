//! Fixture workspaces: a seeded violation for every rule family must make
//! `defender lint` exit 2, and the same workspace with the violation
//! annotated or fixed must exit 0. Fixtures put their files where the
//! built-in rule scopes look: sources under `crates/num/src` (in every
//! source rule's scope), the metric registry, `EXPERIMENTS.md`,
//! `baselines/`, `Cargo.lock` and the member manifests.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

const LIB: &str = "crates/num/src/lib.rs";
const REGISTRY: &str = "crates/obs/metrics_registry.txt";
const DOCS: &str = "EXPERIMENTS.md";

/// A lockfile that resolves nothing but a workspace path package.
const PATH_ONLY_LOCK: &str =
    "version = 4\n\n[[package]]\nname = \"defender-num\"\nversion = \"0.1.0\"\n";

/// Materializes a fresh temp workspace holding the files every lint run
/// reads — an empty metric registry, empty docs and a path-only
/// `Cargo.lock` — then `files`, which may replace any of them.
fn workspace(files: &[(&str, &str)]) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let root = std::env::temp_dir().join(format!(
        "defender-lint-fixture-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let defaults = [(REGISTRY, ""), (DOCS, ""), ("Cargo.lock", PATH_ONLY_LOCK)];
    for (rel, text) in defaults.iter().chain(files) {
        let path = root.join(rel);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).unwrap();
        }
        fs::write(path, text).unwrap();
    }
    root
}

/// A workspace whose only source file is `lib_rs`.
fn single_file_root(lib_rs: &str) -> PathBuf {
    workspace(&[(LIB, lib_rs)])
}

/// Runs the CLI driver against `root` and returns its exit code.
fn lint_exit(root: &Path) -> u8 {
    let args = vec!["--root".to_string(), root.to_string_lossy().into_owned()];
    defender_lint::run(&args).unwrap()
}

/// The `(rule, path)` of every finding at `root`.
fn findings(root: &Path) -> Vec<(String, String)> {
    let report = defender_lint::lint(root).unwrap();
    report
        .findings
        .into_iter()
        .map(|f| (f.rule, f.path))
        .collect()
}

const CLEAN: &str = "pub fn ok(x: i64) -> i64 {\n    x + 1\n}\n";

/// A source emitting the one counter the metric fixtures register.
const METERED: &str =
    "pub fn ok(x: i64) -> i64 {\n    defender_obs::counter!(\"good.counter\").incr();\n    x + 1\n}\n";

const GOOD_REGISTRY: &str = "counter good.counter\n";
const GOOD_DOCS: &str = "`good.counter` counts good things\n";

#[test]
fn clean_workspace_exits_zero() {
    assert_eq!(lint_exit(&single_file_root(CLEAN)), 0);
    let metered = workspace(&[(REGISTRY, GOOD_REGISTRY), (DOCS, GOOD_DOCS), (LIB, METERED)]);
    assert_eq!(lint_exit(&metered), 0);
}

#[test]
fn exactness_violation_exits_two() {
    let root = single_file_root("pub fn bad(x: i64) -> f64 {\n    x as f64 * 0.5\n}\n");
    assert_eq!(lint_exit(&root), 2);
}

#[test]
fn determinism_violation_exits_two() {
    let root = single_file_root(
        "use std::collections::HashMap;\npub fn bad() -> usize {\n    HashMap::<u8, u8>::new().len()\n}\n",
    );
    assert_eq!(lint_exit(&root), 2);
}

#[test]
fn panic_violation_exits_two_and_annotation_clears_it() {
    let bad = format!("{CLEAN}pub fn bad(v: &[u8]) -> u8 {{\n    *v.first().unwrap()\n}}\n");
    assert_eq!(lint_exit(&single_file_root(&bad)), 2);
    let annotated = format!(
        "{CLEAN}pub fn bad(v: &[u8]) -> u8 {{\n    \
         *v.first().unwrap() // lint: allow(panic) callers pass non-empty slices\n}}\n"
    );
    assert_eq!(lint_exit(&single_file_root(&annotated)), 0);
}

#[test]
fn unregistered_metric_exits_two() {
    let root = single_file_root(
        "pub fn bad() {\n    defender_obs::counter!(\"rogue.counter\").incr();\n}\n",
    );
    assert_eq!(lint_exit(&root), 2);
}

#[test]
fn orphaned_registry_entry_exits_two() {
    // The registry declares a counter no code emits.
    let root = workspace(&[
        (REGISTRY, "counter good.counter\ncounter ghost.counter\n"),
        (DOCS, "`good.counter` and `ghost.counter` documented\n"),
        (LIB, METERED),
    ]);
    assert_eq!(lint_exit(&root), 2);
}

#[test]
fn undocumented_counter_exits_two() {
    let root = workspace(&[
        (REGISTRY, GOOD_REGISTRY),
        (DOCS, "nothing relevant here\n"),
        (LIB, METERED),
    ]);
    assert_eq!(lint_exit(&root), 2);
}

#[test]
fn unknown_baseline_counter_exits_two() {
    let root = workspace(&[
        (REGISTRY, GOOD_REGISTRY),
        (DOCS, GOOD_DOCS),
        (LIB, METERED),
        (
            "baselines/BENCH_x.json",
            "{\"experiment\": \"x\", \"phases\": [], \"counters\": {\"mystery.key\": 1}}\n",
        ),
    ]);
    assert_eq!(lint_exit(&root), 2);
}

#[test]
fn malformed_annotation_exits_two() {
    // A reason-less annotation is itself a finding (and suppresses nothing).
    let root = single_file_root("pub fn f() {} // lint: allow(panic)\n");
    assert_eq!(lint_exit(&root), 2);
}

#[test]
fn cfg_test_code_is_exempt() {
    let src = format!(
        "{CLEAN}#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        \
         let v: Vec<u8> = vec![1];\n        assert_eq!(*v.first().unwrap(), 1);\n    }}\n}}\n"
    );
    assert_eq!(lint_exit(&single_file_root(&src)), 0);
}

#[test]
fn json_format_reports_findings() {
    let root = single_file_root("pub fn bad(v: &[u8]) -> u8 {\n    *v.first().unwrap()\n}\n");
    let args = vec![
        "--root".to_string(),
        root.to_string_lossy().into_owned(),
        "--format".to_string(),
        "json".to_string(),
    ];
    assert_eq!(defender_lint::run(&args).unwrap(), 2);
}

// ---- item-aware rule families (lint v2) ----

#[test]
fn bare_index_gated_only_on_the_exact_path() {
    // `pick` mentions `Ratio`, so it is on the exact path: bare indexing
    // is a panic2 finding there...
    let exact = "pub struct Ratio;\npub fn pick(v: &[Ratio]) -> &Ratio {\n    &v[0]\n}\n";
    assert_eq!(lint_exit(&single_file_root(exact)), 2);
    // ...but the identical shape outside the exact path is none.
    let outside = "pub fn pick(v: &[u8]) -> u8 {\n    v[0]\n}\n";
    assert_eq!(lint_exit(&single_file_root(outside)), 0);
    let annotated = "pub struct Ratio;\npub fn pick(v: &[Ratio]) -> &Ratio {\n    \
                     &v[0] // lint: allow(index) callers pass non-empty slices\n}\n";
    assert_eq!(lint_exit(&single_file_root(annotated)), 0);
}

#[test]
fn narrowing_cast_exits_two() {
    // Narrow targets (u8..i32) are findings anywhere in scope.
    let bad = "pub fn shrink(x: u32) -> u8 {\n    x as u8\n}\n";
    assert_eq!(lint_exit(&single_file_root(bad)), 2);
    let annotated = "pub fn shrink(x: u32) -> u8 {\n    \
                     x as u8 // lint: allow(cast) callers pass values below 256\n}\n";
    assert_eq!(lint_exit(&single_file_root(annotated)), 0);
    // Wide targets (u64/i64) are gated only inside exact-path fns.
    let wide_outside = "pub fn wide(x: u128) -> u64 {\n    x as u64\n}\n";
    assert_eq!(lint_exit(&single_file_root(wide_outside)), 0);
    let wide_exact = "pub struct Ratio;\npub fn wide(_r: &Ratio, x: u128) -> u64 {\n    \
                      x as u64\n}\n";
    assert_eq!(lint_exit(&single_file_root(wide_exact)), 2);
}

#[test]
fn stale_annotation_ages_into_a_finding() {
    // A well-formed allow that suppresses nothing is itself a finding.
    let stale = "pub fn fine() {} // lint: allow(panic) stale: nothing here panics\n";
    assert_eq!(lint_exit(&single_file_root(stale)), 2);
}

#[test]
fn annotations_no_rule_consults_age_into_unused_allow() {
    // No rule consults `ordering`, `lock` or `spawn`, so an annotation
    // naming one suppresses nothing.
    for id in ["ordering", "lock", "spawn"] {
        let src = format!(
            "use std::sync::atomic::{{AtomicU64, Ordering}};\n\
             pub fn read(c: &AtomicU64) -> u64 {{\n    \
             c.load(Ordering::Relaxed) // lint: allow({id}) monotone counter\n}}\n"
        );
        let root = single_file_root(&src);
        assert_eq!(lint_exit(&root), 2, "allow({id})");
        assert_eq!(
            findings(&root),
            vec![("unused_allow".to_string(), LIB.to_string())]
        );
    }
}

// ---- dependency audit ----

#[test]
fn registry_package_in_the_lockfile_exits_two() {
    let lock = format!(
        "{PATH_ONLY_LOCK}\n[[package]]\nname = \"serde\"\nversion = \"1.0.0\"\n\
         source = \"registry+https://github.com/rust-lang/crates.io-index\"\n"
    );
    let root = workspace(&[(LIB, CLEAN), ("Cargo.lock", &lock)]);
    assert_eq!(lint_exit(&root), 2);
    assert_eq!(
        findings(&root),
        vec![("deps".to_string(), "Cargo.lock".to_string())]
    );
}

#[test]
fn member_manifest_must_inherit_the_workspace_lints() {
    let package = "[package]\nname = \"defender-num\"\n\n";
    let bare = format!("{package}[dependencies]\n");
    let root = workspace(&[(LIB, CLEAN), ("crates/num/Cargo.toml", &bare)]);
    assert_eq!(lint_exit(&root), 2);
    assert_eq!(
        findings(&root),
        vec![("deps".to_string(), "crates/num/Cargo.toml".to_string())]
    );
    let inherits = format!("{package}[lints]\nworkspace = true\n\n[dependencies]\n");
    let root = workspace(&[(LIB, CLEAN), ("crates/num/Cargo.toml", &inherits)]);
    assert_eq!(lint_exit(&root), 0);
    // A virtual root manifest has no targets of its own to reach.
    let root = workspace(&[
        (LIB, CLEAN),
        ("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n"),
        ("crates/num/Cargo.toml", &inherits),
    ]);
    assert_eq!(lint_exit(&root), 0);
}

#[test]
fn json_field_order_is_stable() {
    // The JSON report is a hand-assembled contract: downstream consumers
    // (and the docs) rely on this exact top-level field order.
    let report = defender_lint::lint(&single_file_root(CLEAN)).unwrap();
    let json = report.render_json();
    let keys = [
        "\"files_scanned\"",
        "\"findings\"",
        "\"panic\"",
        "\"panic2\"",
    ];
    let positions: Vec<usize> = keys
        .iter()
        .map(|k| {
            json.find(k)
                .unwrap_or_else(|| panic!("{k} missing in {json}"))
        })
        .collect();
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "top-level fields out of order: {json}"
    );
    // The nested order is part of the same contract; anchor the search at
    // the section so the repeated "annotated" key resolves to the right
    // object.
    let body = &json[json.find("\"panic2\"").unwrap()..];
    let nested = [
        "\"exact_fns\"",
        "\"sites_exact\"",
        "\"annotated\"",
        "\"sites_outside_exact\"",
    ];
    let pos: Vec<usize> = nested.iter().map(|k| body.find(k).unwrap()).collect();
    assert!(pos.windows(2).all(|w| w[0] < w[1]), "nested order: {json}");
}

#[test]
fn exit_code_table() {
    // 0 — clean workspace.
    assert_eq!(lint_exit(&single_file_root(CLEAN)), 0);
    // 2 — findings.
    assert_eq!(
        lint_exit(&single_file_root(
            "pub fn bad(x: u32) -> u8 {\n    x as u8\n}\n"
        )),
        2
    );
    // 1 — usage and I/O errors surface as Err; `defender lint` maps them
    // to 1. The scopes are built in, so there is no config flag to pass.
    assert!(defender_lint::run(&["--wat".to_string()]).is_err());
    assert!(defender_lint::run(&["--config".to_string(), "lint.toml".to_string()]).is_err());
    assert!(defender_lint::run(&[
        "--root".to_string(),
        "/nonexistent/defender-lint-fixture".to_string()
    ])
    .is_err());
}
