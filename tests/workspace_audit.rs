//! Workspace audit: the invariants that are not about Rust expressions.
//!
//! rustc and clippy enforce the source rules (DESIGN.md §12) through the
//! lint blocks at each library crate's root. This test owns the rest:
//!
//! - the metric registry (`crates/obs/metrics_registry.txt`) agrees with
//!   the `counter!`/`gauge!`/`histogram!`/`span!` literals in library
//!   code, with EXPERIMENTS.md, and with the committed baselines;
//! - `Cargo.lock` resolves nothing but workspace paths, and every member
//!   manifest inherits the workspace lint table;
//! - each library crate root enables the lints its scope requires, and
//!   the `clippy.toml` it reads lists the types and methods those lints
//!   need ([`SCOPES`] is the one place that states the policy);
//! - the crates gated by `integer_division_remainder_used` write no
//!   compound `/=` or `%=`, which that lint does not see.
//!
//! Every check is a function over text, so the negative cases below feed
//! it fixtures and [`workspace_is_clean`] feeds it the real files.

use std::fs;
use std::path::{Path, PathBuf};

use defender_obs::json;

/// No floats on the exact path: NE probabilities are rationals.
const EXACTNESS: &[&str] = &[
    "clippy::disallowed_types",
    "clippy::disallowed_methods",
    "clippy::float_arithmetic",
];
/// No wall clock, hash-order containers or ambient randomness.
const DETERMINISM: &[&str] = &["clippy::disallowed_types"];
/// Every panic site carries a written reason.
const PANIC: &[&str] = &[
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::unreachable",
    "clippy::todo",
    "clippy::unimplemented",
];
/// Indexing, `split_at` and integer division on the exact path.
const PANIC2: &[&str] = &[
    "clippy::indexing_slicing",
    "clippy::disallowed_methods",
    "clippy::integer_division_remainder_used",
];
/// Casts that may truncate, wrap or lose the sign.
const CAST: &[&str] = &[
    "clippy::cast_possible_truncation",
    "clippy::cast_possible_wrap",
    "clippy::cast_sign_loss",
];

/// The crates that hold the exact path are in every family.
const EXACT_PATH: &[&[&str]] = &[EXACTNESS, DETERMINISM, PANIC, PANIC2, CAST];

/// Each library crate root and the rule families in whose scope it is.
const SCOPES: &[(&str, &[&[&str]])] = &[
    ("crates/num", EXACT_PATH),
    ("crates/lp", EXACT_PATH),
    ("crates/game", EXACT_PATH),
    ("crates/core", EXACT_PATH),
    ("crates/matching", &[EXACTNESS, DETERMINISM, PANIC, CAST]),
    ("crates/cache", &[EXACTNESS, PANIC, PANIC2, CAST]),
    ("crates/serve", &[EXACTNESS, PANIC, CAST]),
    ("crates/graph", &[DETERMINISM, PANIC]),
    ("crates/par", &[DETERMINISM, PANIC]),
    ("crates/obs", &[DETERMINISM, PANIC]),
    ("crates/profile", &[DETERMINISM, PANIC]),
    ("", &[DETERMINISM, PANIC]),
];

/// The `clippy.toml` paths each family needs in the list its lints read.
const CONFIG: &[(&[&str], &[&str])] = &[
    (
        EXACTNESS,
        &[
            "f64",
            "f32",
            "defender_num::Ratio::to_f64",
            "defender_num::rng::Rng::gen_f64",
            "defender_num::rng::Rng::gen_bool",
        ],
    ),
    (
        DETERMINISM,
        &[
            "std::time::Instant",
            "std::time::SystemTime",
            "std::collections::HashMap",
            "std::collections::HashSet",
            "std::hash::RandomState",
        ],
    ),
    (PANIC2, &["slice::split_at", "slice::split_at_mut"]),
];

const MACROS: &[&str] = &["counter", "gauge", "histogram", "span"];

/// The lines of library code in `text`: everything above the first
/// `#[cfg(test)]` line, without `//` comment lines, numbered from 1.
fn library_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
    text.lines()
        .enumerate()
        .take_while(|(_, line)| !line.trim_start().starts_with("#[cfg(test)]"))
        .filter(|(_, line)| !line.trim_start().starts_with("//"))
        .map(|(i, line)| (i + 1, line))
}

/// One `counter!("name")`-style literal: `(kind, name, "path:line")`.
type MetricUse = (&'static str, String, String);

/// The metric-macro name literals in the library code of `text`.
fn metric_uses(path: &str, text: &str) -> Vec<MetricUse> {
    let mut uses = Vec::new();
    for (line_no, line) in library_lines(text) {
        for &kind in MACROS {
            let pattern = format!("{kind}!(\"");
            let mut rest = line;
            while let Some(at) = rest.find(&pattern) {
                let inside_ident = rest[..at]
                    .chars()
                    .next_back()
                    .is_some_and(|c| c.is_alphanumeric() || c == '_');
                rest = &rest[at + pattern.len()..];
                let Some(end) = rest.find('"') else { break };
                if !inside_ident {
                    uses.push((kind, rest[..end].to_string(), format!("{path}:{line_no}")));
                }
            }
        }
    }
    uses
}

/// One registry line: `(kind, name, dynamic)`; a trailing `*` on the name
/// makes it a prefix wildcard.
type Entry = (String, String, bool);

fn parse_registry(text: &str) -> Result<Vec<Entry>, String> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let (kind, name, dynamic) = match words.as_slice() {
            [kind, name] => (*kind, *name, false),
            [kind, name, "dynamic"] => (*kind, *name, true),
            _ => return Err(format!("registry line {}: malformed `{line}`", i + 1)),
        };
        if !MACROS.contains(&kind) {
            return Err(format!("registry line {}: unknown kind `{kind}`", i + 1));
        }
        entries.push((kind.to_string(), name.to_string(), dynamic));
    }
    Ok(entries)
}

fn matches(entry: &Entry, name: &str) -> bool {
    match entry.1.strip_suffix('*') {
        Some(prefix) => name.starts_with(prefix),
        None => entry.1 == name,
    }
}

/// The counter-valued keys of a `BENCH_*.json` baseline: its `counters`,
/// `parallelism` and `profile` objects.
fn baseline_keys(text: &str) -> Result<Vec<String>, String> {
    let doc = json::parse(text)?;
    let mut keys = Vec::new();
    for section in ["counters", "parallelism", "profile"] {
        if let Some(fields) = doc.get(section).and_then(|v| v.as_object()) {
            keys.extend(fields.iter().map(|(key, _)| key.clone()));
        }
    }
    Ok(keys)
}

/// Cross-checks the metric uses against the registry, the documentation
/// and the baselines (`(path, keys)` pairs).
fn registry_problems(
    uses: &[MetricUse],
    registry: &[Entry],
    docs: &str,
    baselines: &[(String, Vec<String>)],
) -> Vec<String> {
    let mut problems = Vec::new();
    for (kind, name, at) in uses {
        match registry.iter().find(|e| matches(e, name)) {
            None => problems.push(format!("{at}: {kind} `{name}` is not registered")),
            Some(entry) if entry.0 != *kind => problems.push(format!(
                "{at}: `{name}` is used as a {kind} but registered as a {}",
                entry.0
            )),
            Some(_) => {}
        }
    }
    for entry in registry {
        if !entry.2 && !uses.iter().any(|(_, name, _)| matches(entry, name)) {
            problems.push(format!(
                "orphaned {} `{}`: no code emits it",
                entry.0, entry.1
            ));
        }
        let needle = entry.1.strip_suffix('*').unwrap_or(&entry.1);
        if entry.0 == "counter" && !docs.contains(needle) {
            problems.push(format!("counter `{}` is not documented", entry.1));
        }
    }
    for (path, keys) in baselines {
        for key in keys {
            if !registry.iter().any(|e| matches(e, key)) {
                problems.push(format!("{path}: baseline key `{key}` is not registered"));
            }
        }
    }
    problems
}

/// A `source =` line in `Cargo.lock` names a registry or git package.
fn lockfile_problems(text: &str) -> Vec<String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| line.trim_start().starts_with("source ="))
        .map(|(i, line)| format!("Cargo.lock:{}: {}", i + 1, line.trim()))
        .collect()
}

/// Whether a package manifest inherits the workspace lint table (a
/// virtual manifest has no targets for it to reach).
fn inherits_workspace_lints(text: &str) -> bool {
    if !text.contains("[package]") {
        return true;
    }
    let mut in_lints = false;
    for line in text.lines().map(str::trim) {
        if line.starts_with('[') {
            in_lints = line == "[lints]";
        } else if in_lints && line.replace(' ', "") == "workspace=true" {
            return true;
        }
    }
    false
}

/// The lint names listed in the crate-level `#![<level>(...)]` attributes
/// of a crate root.
fn crate_level(root: &str, level: &str) -> Vec<String> {
    let open = format!("#![{level}(");
    let mut names = Vec::new();
    let mut rest = root;
    while let Some(at) = rest.find(&open) {
        rest = &rest[at + open.len()..];
        let body = rest.split(")]").next().unwrap_or("");
        names.extend(
            body.split(',')
                .map(str::trim)
                .filter(|name| !name.is_empty() && !name.starts_with("reason"))
                .map(str::to_string),
        );
    }
    names
}

/// The lints of `families` that the crate root `text` fails to enable, or
/// switches off again crate-wide.
fn scope_problems(path: &str, text: &str, families: &[&[&str]]) -> Vec<String> {
    let enabled = crate_level(text, "warn");
    let mut silenced = crate_level(text, "allow");
    silenced.extend(crate_level(text, "expect"));
    let mut lints: Vec<&str> = families.iter().flat_map(|f| f.iter().copied()).collect();
    lints.sort_unstable();
    lints.dedup();
    let mut problems = Vec::new();
    for lint in lints {
        if !enabled.iter().any(|l| l == lint) {
            problems.push(format!("{path}: does not enable `{lint}`"));
        }
        if silenced.iter().any(|l| l == lint) {
            problems.push(format!("{path}: silences `{lint}` crate-wide"));
        }
    }
    problems
}

/// The paths of `families` missing from the `clippy.toml` text a crate
/// reads.
fn config_problems(path: &str, config: &str, families: &[&[&str]]) -> Vec<String> {
    CONFIG
        .iter()
        .filter(|(family, _)| families.contains(family))
        .flat_map(|(_, paths)| paths.iter())
        .filter(|p| !config.contains(&format!("path = \"{p}\"")))
        .map(|p| format!("{path}: `{p}` is not disallowed"))
        .collect()
}

/// Compound integer division, which `integer_division_remainder_used`
/// does not see: write `let q = a / b;` under an `#[expect]` instead.
fn compound_division_sites(path: &str, text: &str) -> Vec<String> {
    library_lines(text)
        .filter(|(_, line)| {
            let code = line.split("//").next().unwrap_or("");
            code.contains("/=") || code.contains("%=")
        })
        .map(|(line_no, _)| format!("{path}:{line_no}: compound `/=` or `%=`"))
        .collect()
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn sorted_dir(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .collect();
    paths.sort();
    paths
}

/// Every `.rs` file under `dir`, recursively, as `(relative path, text)`.
fn rust_files(dir: &Path, out: &mut Vec<(String, String)>) {
    for path in sorted_dir(dir) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path.strip_prefix(root()).expect("under the root");
            out.push((rel.display().to_string(), read(&path)));
        }
    }
}

/// The library sources: `src/` and every `crates/*/src`.
fn library_sources() -> Vec<(String, String)> {
    let mut files = Vec::new();
    rust_files(&root().join("src"), &mut files);
    for krate in sorted_dir(&root().join("crates")) {
        if krate.join("src").is_dir() {
            rust_files(&krate.join("src"), &mut files);
        }
    }
    files
}

/// The nearest `clippy.toml` at or above a crate directory.
fn clippy_config(krate: &Path) -> String {
    krate
        .ancestors()
        .map(|dir| dir.join("clippy.toml"))
        .find(|file| file.is_file())
        .map(|file| read(&file))
        .expect("a clippy.toml above every crate")
}

#[test]
fn workspace_is_clean() {
    let root = root();
    let sources = library_sources();
    let uses: Vec<MetricUse> = sources
        .iter()
        .flat_map(|(path, text)| metric_uses(path, text))
        .collect();
    assert!(
        uses.len() > 50,
        "the scan found only {} metric uses",
        uses.len()
    );
    let registry = parse_registry(&read(&root.join("crates/obs/metrics_registry.txt")))
        .expect("the registry parses");
    let docs = read(&root.join("EXPERIMENTS.md"));
    let baselines: Vec<(String, Vec<String>)> = sorted_dir(&root.join("baselines"))
        .into_iter()
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .map(|p| {
            let keys = baseline_keys(&read(&p)).expect("the baseline parses");
            (p.display().to_string(), keys)
        })
        .collect();
    let mut problems = registry_problems(&uses, &registry, &docs, &baselines);

    problems.extend(lockfile_problems(&read(&root.join("Cargo.lock"))));
    let members = sorted_dir(&root.join("crates"))
        .into_iter()
        .map(|k| k.join("Cargo.toml"));
    for manifest in std::iter::once(root.join("Cargo.toml")).chain(members) {
        if !inherits_workspace_lints(&read(&manifest)) {
            problems.push(format!(
                "{}: lacks `[lints] workspace = true`",
                manifest.display()
            ));
        }
    }

    for (krate, families) in SCOPES {
        let dir = root.join(krate);
        problems.extend(scope_problems(
            krate,
            &read(&dir.join("src/lib.rs")),
            families,
        ));
        problems.extend(config_problems(krate, &clippy_config(&dir), families));
        if families.contains(&PANIC2) {
            for (path, text) in sources.iter().filter(|(p, _)| p.starts_with(krate)) {
                problems.extend(compound_division_sites(path, text));
            }
        }
    }
    assert!(
        problems.is_empty(),
        "workspace audit:\n{}",
        problems.join("\n")
    );
}

const METERED: &str = "pub fn f() {\n    defender_obs::counter!(\"good.counter\").incr();\n}\n";
const GOOD: &str = "counter good.counter\n";

fn audit(src: &str, registry: &str, docs: &str, baseline_keys: &[&str]) -> Vec<String> {
    let registry = parse_registry(registry).expect("fixture registry parses");
    let baselines = vec![(
        "baselines/BENCH_x.json".to_string(),
        baseline_keys.iter().map(|k| k.to_string()).collect(),
    )];
    let uses = metric_uses("crates/x/src/lib.rs", src);
    registry_problems(&uses, &registry, docs, &baselines)
}

#[test]
fn a_consistent_registry_passes() {
    let src = format!(
        "{METERED}// counter!(\"comment.only\")\n#[cfg(test)]\nmod tests {{\n    \
         fn t() {{ crate::gauge!(\"test.only\").set(1); }}\n}}\n"
    );
    let registry = format!("# header\n{GOOD}counter par.w* dynamic\n");
    let problems = audit(&src, &registry, "`good.counter`, `par.w`", &["par.w3"]);
    assert!(problems.is_empty(), "{problems:?}");
}

#[test]
fn an_unregistered_name_fails() {
    let problems = audit(METERED, "", "", &[]);
    assert_eq!(
        problems,
        ["crates/x/src/lib.rs:2: counter `good.counter` is not registered"]
    );
}

#[test]
fn a_kind_mismatch_fails() {
    let problems = audit(METERED, "gauge good.counter\n", "", &[]);
    assert_eq!(
        problems,
        ["crates/x/src/lib.rs:2: `good.counter` is used as a counter but registered as a gauge"]
    );
}

#[test]
fn an_orphaned_entry_fails() {
    let registry = format!("{GOOD}counter ghost.counter\n");
    let problems = audit(METERED, &registry, "good.counter ghost.counter", &[]);
    assert_eq!(
        problems,
        ["orphaned counter `ghost.counter`: no code emits it"]
    );
}

#[test]
fn an_undocumented_counter_fails() {
    let problems = audit(METERED, GOOD, "nothing relevant", &[]);
    assert_eq!(problems, ["counter `good.counter` is not documented"]);
}

#[test]
fn an_unknown_baseline_key_fails() {
    let keys = baseline_keys("{\"counters\": {\"mystery.key\": 1}, \"phases\": []}").unwrap();
    let problems = audit(METERED, GOOD, "good.counter", &[&keys[0]]);
    assert_eq!(
        problems,
        ["baselines/BENCH_x.json: baseline key `mystery.key` is not registered"]
    );
}

#[test]
fn a_malformed_registry_line_fails() {
    assert!(parse_registry("widget a.b\n").is_err());
    assert!(parse_registry("counter\n").is_err());
    assert!(parse_registry("counter a.b static\n").is_err());
}

#[test]
fn a_registry_package_in_the_lockfile_fails() {
    let lock = "version = 4\n\n[[package]]\nname = \"serde\"\nversion = \"1.0.0\"\n\
                source = \"registry+https://github.com/rust-lang/crates.io-index\"\n";
    assert_eq!(lockfile_problems(lock).len(), 1);
    assert!(lockfile_problems("version = 4\n\n[[package]]\nname = \"defender-num\"\n").is_empty());
}

#[test]
fn a_manifest_without_the_workspace_lints_fails() {
    let bare = "[package]\nname = \"defender-num\"\n\n[dependencies]\n";
    assert!(!inherits_workspace_lints(bare));
    let inherits = bare.replace("[dependencies]", "[lints]\nworkspace = true\n");
    assert!(inherits_workspace_lints(&inherits));
    assert!(inherits_workspace_lints(
        "[workspace]\nmembers = [\"crates/*\"]\n"
    ));
}

#[test]
fn a_crate_root_missing_a_required_lint_fails() {
    let root = "#![warn(missing_docs)]\n#![warn(\n    clippy::unwrap_used,\n    clippy::expect_used,\n)]\n";
    let problems = scope_problems("crates/x", root, &[PANIC]);
    assert_eq!(problems.len(), 4, "{problems:?}");
    assert!(problems[0].contains("clippy::panic"));
    let silenced = format!(
        "#![warn({})]\n#![expect(clippy::todo, reason = \"no\")]\n",
        PANIC.join(", ")
    );
    assert_eq!(
        scope_problems("crates/x", &silenced, &[PANIC]),
        ["crates/x: silences `clippy::todo` crate-wide"]
    );
}

#[test]
fn a_clippy_config_missing_a_path_fails() {
    let config = "disallowed-types = [\n    { path = \"f64\", reason = \"exact\" },\n]\n";
    let problems = config_problems("crates/x", config, &[EXACTNESS]);
    assert_eq!(problems.len(), 4, "{problems:?}");
    assert!(config_problems("crates/x", config, &[PANIC]).is_empty());
}

#[test]
fn compound_division_fails() {
    let src = "fn f(mut a: u64, b: u64) -> u64 {\n    a /= b; // g >= 1\n    a %= b;\n    \
               // a /= b in a comment\n    a\n}\n#[cfg(test)]\nmod tests { fn t(mut x: u8) { x /= 2; } }\n";
    assert_eq!(
        compound_division_sites("crates/x/src/lib.rs", src),
        [
            "crates/x/src/lib.rs:2: compound `/=` or `%=`",
            "crates/x/src/lib.rs:3: compound `/=` or `%=`",
        ]
    );
}
