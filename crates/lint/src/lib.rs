//! defender-lint: zero-dependency static analysis for the workspace.
//!
//! The reproduction rests on invariants `rustc` cannot see: exact `Ratio`
//! arithmetic must never silently mix with floats (the NE probabilities of
//! Π_k(G) are rationals by Theorem 1 of the paper), deterministic replay
//! forbids wall clock and hash-order containers in library crates, every
//! potential panic site in a library crate must be justified, and every
//! obs metric name must be registered, documented, and consistent with the
//! committed bench baselines. `defender lint` machine-checks all four on
//! every commit.
//!
//! The analysis is deliberately **token-level** (a hand-rolled lexer, no
//! `syn`, no rustc): see [`rules`] and DESIGN.md §12 for the soundness
//! caveats this buys the zero-dependency build. v2 adds an **item layer**
//! ([`items`]) — item extents and an approximate intra-crate call graph —
//! so [`panic2`] and the cast rule in [`audit`] can gate by *function*
//! (is this on the exact `Ratio` path?) instead of flagging every token
//! uniformly. A final suppression-ageing pass turns every
//! `// lint: allow(…)` that suppressed nothing into an `unused_allow`
//! finding, so annotations cannot outlive the code they justified.
//!
//! What the compiler and cargo already decide stays with them: the root
//! manifest's `[workspace.lints.rust]` table forbids `unsafe` in every
//! target, and `Cargo.lock` records every resolved package. The **deps**
//! rule ([`audit`]) only checks that each member manifest inherits that
//! table and that the lockfile names no registry or git source.
//!
//! Each rule's scope is a constant next to the rule; there is no config
//! file. `defender lint` ([`run`]) is the one command-line entry point.
//! Exit codes: `0` clean, `2` findings, `1` usage or I/O error.

pub mod audit;
pub mod items;
pub mod panic2;
pub mod rules;
pub mod source;
pub mod tokenizer;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use defender_obs::json::{JsonArray, JsonObject};

use items::{FnId, ItemIndex};
use panic2::Panic2Stats;
use rules::{Finding, MetricUse, MetricsInputs, PanicStats};
use source::SourceFile;

/// The outcome of linting a workspace.
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files tokenized.
    pub files_scanned: u64,
    /// Well-formed `// lint: allow(…)` annotations in the scanned code.
    pub annotations: u64,
    /// Panic-site classification totals.
    pub panic: PanicStats,
    /// Panic-propagation v2 site totals (exact-path gating).
    pub panic2: Panic2Stats,
    /// Functions on the exact path (per-crate `Ratio` closures, merged).
    pub exact_fns: u64,
    /// Every metric call site seen (also drives `--dump-registry`).
    pub metric_uses: Vec<MetricUse>,
}

impl LintReport {
    /// Findings per rule family, for counters and the summary line.
    #[must_use]
    pub fn by_rule(&self) -> BTreeMap<&str, u64> {
        let mut out = BTreeMap::new();
        for f in &self.findings {
            *out.entry(f.rule.as_str()).or_insert(0) += 1;
        }
        out
    }

    /// Human-readable rendering: one `path:line: [rule] message` per
    /// finding plus a summary line.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.path, f.line, f.rule, f.message
            ));
        }
        let per_rule: Vec<String> = self
            .by_rule()
            .iter()
            .map(|(rule, n)| format!("{rule}: {n}"))
            .collect();
        let breakdown = if per_rule.is_empty() {
            String::new()
        } else {
            format!(" ({})", per_rule.join(", "))
        };
        out.push_str(&format!(
            "lint: {} finding(s){} in {} file(s); {} annotation(s); \
             panic sites: {} ({} annotated), index sites: {}\n",
            self.findings.len(),
            breakdown,
            self.files_scanned,
            self.annotations,
            self.panic.sites,
            self.panic.annotated,
            self.panic.index_sites,
        ));
        out.push_str(&format!(
            "lint: exact path: {} fn(s), {} gated site(s) ({} annotated), \
             {} site(s) outside\n",
            self.exact_fns,
            self.panic2.sites_exact,
            self.panic2.annotated,
            self.panic2.sites_outside_exact,
        ));
        out
    }

    /// Machine-readable rendering (stable JSON, same writer as the obs
    /// registry export).
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut findings = JsonArray::new();
        for f in &self.findings {
            let mut o = JsonObject::new();
            o.field_str("rule", &f.rule);
            o.field_str("path", &f.path);
            o.field_u64("line", u64::from(f.line));
            o.field_str("message", &f.message);
            findings.push_raw(&o.finish());
        }
        let mut panic = JsonObject::new();
        panic.field_u64("sites", self.panic.sites);
        panic.field_u64("annotated", self.panic.annotated);
        panic.field_u64("index_sites", self.panic.index_sites);
        let mut panic2 = JsonObject::new();
        panic2.field_u64("exact_fns", self.exact_fns);
        panic2.field_u64("sites_exact", self.panic2.sites_exact);
        panic2.field_u64("annotated", self.panic2.annotated);
        panic2.field_u64("sites_outside_exact", self.panic2.sites_outside_exact);
        let mut root = JsonObject::new();
        root.field_u64("files_scanned", self.files_scanned);
        root.field_raw("findings", &findings.finish());
        root.field_raw("panic", &panic.finish());
        root.field_raw("panic2", &panic2.finish());
        root.finish()
    }

    /// A `BENCH_lint.json`-shaped sidecar document (RunReport schema), so
    /// lint runs can be diffed by `defender bench diff` like any
    /// experiment.
    #[must_use]
    pub fn sidecar_json(&self) -> String {
        let by_rule = self.by_rule();
        let count = |rule: &str| by_rule.get(rule).copied().unwrap_or(0);
        let mut counters = JsonObject::new();
        counters.field_u64("lint.annotations", self.annotations);
        counters.field_u64("lint.files_scanned", self.files_scanned);
        counters.field_u64("lint.findings.annotation", count("annotation"));
        counters.field_u64("lint.findings.cast", count("cast"));
        counters.field_u64("lint.findings.deps", count("deps"));
        counters.field_u64("lint.findings.determinism", count("determinism"));
        counters.field_u64("lint.findings.exactness", count("exactness"));
        counters.field_u64("lint.findings.metrics", count("metrics"));
        counters.field_u64("lint.findings.panic", count("panic"));
        counters.field_u64("lint.findings.panic2", count("panic2"));
        counters.field_u64("lint.findings.unused_allow", count("unused_allow"));
        let mut root = JsonObject::new();
        root.field_str("experiment", "lint");
        root.field_raw("phases", "[]");
        root.field_raw("counters", &counters.finish());
        root.finish()
    }
}

/// Records the run's totals in the process-wide obs registry (the
/// `lint.*` counters), so embedding contexts that harvest snapshots see
/// lint runs like any other instrumented phase.
fn record_obs_counters(report: &LintReport) {
    let by_rule = report.by_rule();
    let count = |rule: &str| by_rule.get(rule).copied().unwrap_or(0);
    defender_obs::counter!("lint.annotations").add(report.annotations);
    defender_obs::counter!("lint.files_scanned").add(report.files_scanned);
    defender_obs::counter!("lint.findings.annotation").add(count("annotation"));
    defender_obs::counter!("lint.findings.cast").add(count("cast"));
    defender_obs::counter!("lint.findings.deps").add(count("deps"));
    defender_obs::counter!("lint.findings.determinism").add(count("determinism"));
    defender_obs::counter!("lint.findings.exactness").add(count("exactness"));
    defender_obs::counter!("lint.findings.metrics").add(count("metrics"));
    defender_obs::counter!("lint.findings.panic").add(count("panic"));
    defender_obs::counter!("lint.findings.panic2").add(count("panic2"));
    defender_obs::counter!("lint.findings.unused_allow").add(count("unused_allow"));
}

// ---------------------------------------------------------------------------
// Workspace loading
// ---------------------------------------------------------------------------

/// Collects every library `.rs` file under `<root>/crates/*/src` (and
/// `<root>/src` if present), as sorted workspace-relative paths. `tests/`,
/// `benches/` and `examples/` trees are intentionally out of scope: the
/// rules govern library code.
///
/// # Errors
///
/// Propagates filesystem errors with the offending path.
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut src_roots: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in read_dir_sorted(&crates_dir)? {
            let src = entry.join("src");
            if src.is_dir() {
                src_roots.push(src);
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        src_roots.push(root_src);
    }
    let mut files = Vec::new();
    for src in src_roots {
        collect_rs(&src, &mut files)?;
    }
    let mut rel: Vec<PathBuf> = files
        .into_iter()
        .filter_map(|p| p.strip_prefix(root).map(Path::to_path_buf).ok())
        .collect();
    rel.sort();
    Ok(rel)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    for path in read_dir_sorted(dir)? {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// A path rendered workspace-relative with `/` separators (the form the
/// rule scopes and the reports use).
fn rel_str(path: &Path) -> String {
    let s = path.to_string_lossy().into_owned();
    if std::path::MAIN_SEPARATOR == '/' {
        s
    } else {
        s.replace(std::path::MAIN_SEPARATOR, "/")
    }
}

/// The crate-grouping key of a workspace-relative path:
/// `crates/num/src/ratio.rs` → `crates/num`, a root `src/main.rs` → `src`.
/// The call graph and exact-path closure are built per crate — calls do
/// not resolve across crate boundaries at the token level.
fn crate_key(path: &str) -> String {
    let mut parts = path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(krate)) => format!("crates/{krate}"),
        (Some(first), _) => first.to_string(),
        (None, _) => String::new(),
    }
}

/// Runs every rule over the workspace at `root`.
///
/// Three passes: load + item-index every file, close the per-crate exact
/// paths over the call graphs, then run the rule families (the item-aware
/// ones consult the exact set) followed by the suppression-ageing,
/// dependency and metrics audits.
///
/// # Errors
///
/// Fails on I/O errors (including a missing `Cargo.lock` or metric
/// registry), tokenizer errors (a file the lexer cannot read is a
/// finding-grade event but reported as an error since nothing else can be
/// trusted), and a malformed metrics registry.
pub fn lint(root: &Path) -> Result<LintReport, String> {
    // Pass 1: load and item-index every file.
    let mut loaded: Vec<(SourceFile, ItemIndex)> = Vec::new();
    for rel in workspace_files(root)? {
        let rel_name = rel_str(&rel);
        let text = read(root, &rel_name)?;
        let file = SourceFile::parse(&rel_name, &text)
            .map_err(|e| format!("{rel_name}: tokenizer: {e}"))?;
        let index = ItemIndex::build(&file);
        loaded.push((file, index));
    }

    // Pass 2: per-crate exact-path closures, merged (FnIds carry paths, so
    // the union is unambiguous).
    let mut exact: BTreeSet<FnId> = BTreeSet::new();
    let mut crates: BTreeMap<String, Vec<(&str, &ItemIndex, &SourceFile)>> = BTreeMap::new();
    for (file, index) in &loaded {
        crates
            .entry(crate_key(&file.path))
            .or_default()
            .push((file.path.as_str(), index, file));
    }
    for files in crates.values() {
        exact.extend(items::exact_path(files, &["Ratio"]));
    }

    // Pass 3: the rule families, then suppression ageing per file (every
    // rule that consults annotations has run on the file by then).
    let mut report = LintReport {
        exact_fns: exact.len() as u64,
        ..LintReport::default()
    };
    for (file, index) in &loaded {
        report.files_scanned += 1;
        report.annotations += file.allows.len() as u64;
        report.findings.extend(rules::check_annotations(file));
        report.findings.extend(rules::check_exactness(file));
        report.findings.extend(rules::check_determinism(file));
        let (panic_findings, stats) = rules::check_panic(file);
        report.findings.extend(panic_findings);
        report.panic.sites += stats.sites;
        report.panic.annotated += stats.annotated;
        report.panic.index_sites += stats.index_sites;
        let (p2_findings, p2_stats) = panic2::check_panic2(file, index, &exact);
        report.findings.extend(p2_findings);
        report.panic2.sites_exact += p2_stats.sites_exact;
        report.panic2.annotated += p2_stats.annotated;
        report.panic2.sites_outside_exact += p2_stats.sites_outside_exact;
        report
            .findings
            .extend(audit::check_cast(file, index, &exact));
        report.metric_uses.extend(rules::extract_metric_uses(file));
        for allow in file.unused_allows() {
            report.findings.push(Finding::new(
                "unused_allow",
                &file.path,
                allow.line,
                format!(
                    "`// lint: allow({})` suppressed no finding — the covered code \
                     was fixed or the annotation drifted; delete it (reason was: {})",
                    allow.rule, allow.reason
                ),
            ));
        }
    }

    report.findings.extend(deps_findings(root)?);
    let inputs = load_metrics_inputs(root)?;
    report
        .findings
        .extend(rules::check_metrics(&report.metric_uses, &inputs));

    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    record_obs_counters(&report);
    Ok(report)
}

/// Reads the workspace-relative file `rel`.
fn read(root: &Path, rel: &str) -> Result<String, String> {
    fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))
}

/// The **deps** rule: `Cargo.lock`, then every member manifest — the root
/// `Cargo.toml` when it declares a package, and each `crates/*/Cargo.toml`.
fn deps_findings(root: &Path) -> Result<Vec<Finding>, String> {
    let mut findings = audit::check_lockfile(&read(root, audit::LOCKFILE)?);
    let mut manifests = vec!["Cargo.toml".to_string()];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for krate in read_dir_sorted(&crates_dir)? {
            if let Some(name) = krate.file_name() {
                manifests.push(format!("crates/{}/Cargo.toml", name.to_string_lossy()));
            }
        }
    }
    for rel in manifests {
        if !root.join(&rel).is_file() {
            continue;
        }
        let text = read(root, &rel)?;
        // A virtual root manifest has no targets for the table to reach.
        if rel == "Cargo.toml" && !text.contains("[package]") {
            continue;
        }
        findings.extend(audit::check_manifest_lints(&rel, &text));
    }
    Ok(findings)
}

/// Reads the metric registry, its documentation and the committed
/// baselines.
fn load_metrics_inputs(root: &Path) -> Result<MetricsInputs, String> {
    let registry_text = read(root, rules::REGISTRY)?;
    let mut inputs = MetricsInputs {
        registry_path: rules::REGISTRY.to_string(),
        registry: rules::parse_registry(&registry_text)
            .map_err(|e| format!("{}: {e}", rules::REGISTRY))?,
        docs: vec![(
            rules::METRIC_DOCS.to_string(),
            read(root, rules::METRIC_DOCS)?,
        )],
        baselines: Vec::new(),
    };
    let dir = root.join(rules::BASELINES);
    if !dir.is_dir() {
        return Ok(inputs);
    }
    for path in read_dir_sorted(&dir)? {
        let name = path.file_name().map(|n| n.to_string_lossy().into_owned());
        let Some(name) = name else { continue };
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let rel = format!("{}/{name}", rules::BASELINES);
        let keys = baseline_counter_keys(&read(root, &rel)?).map_err(|e| format!("{rel}: {e}"))?;
        inputs.baselines.push((rel, keys));
    }
    Ok(inputs)
}

/// The counter-valued key names of a `BENCH_*.json` sidecar: the
/// `counters`, `parallelism` and `profile` objects.
fn baseline_counter_keys(text: &str) -> Result<Vec<String>, String> {
    let doc = defender_obs::json::parse(text)?;
    let mut keys = Vec::new();
    for section in ["counters", "parallelism", "profile"] {
        if let Some(fields) = doc.get(section).and_then(|v| v.as_object()) {
            keys.extend(fields.iter().map(|(k, _)| k.clone()));
        }
    }
    Ok(keys)
}

// ---------------------------------------------------------------------------
// Command-line driver (`defender lint`)
// ---------------------------------------------------------------------------

const USAGE: &str = "\
usage: defender lint [options]
  --root <dir>      workspace root (default: nearest ancestor holding
                    crates/obs/metrics_registry.txt)
  --format <f>      text | json   (default: text)
  --sidecar         also write BENCH_lint.json in the current directory
  --dump-registry   print a metrics_registry.txt for the workspace's
                    current call sites and exit
exit status: 0 clean, 2 findings, 1 error";

/// Parsed command-line options.
#[derive(Clone, Debug, Default)]
struct Options {
    root: Option<PathBuf>,
    json: bool,
    sidecar: bool,
    dump_registry: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let v = it.next().ok_or("--root needs a value".to_string())?;
                opts.root = Some(PathBuf::from(v));
            }
            "--format" => {
                let v = it.next().ok_or("--format needs a value".to_string())?;
                opts.json = match v.as_str() {
                    "json" => true,
                    "text" => false,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--sidecar" => opts.sidecar = true,
            "--dump-registry" => opts.dump_registry = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Finds the workspace root: the nearest ancestor of the current directory
/// holding the metric registry.
fn find_root() -> Result<PathBuf, String> {
    let start = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    start
        .ancestors()
        .find(|dir| dir.join(rules::REGISTRY).is_file())
        .map(Path::to_path_buf)
        .ok_or(format!(
            "no {} found above {} (pass --root)",
            rules::REGISTRY,
            start.display()
        ))
}

/// A registry document inferred from the workspace's current call sites
/// (sorted, deduplicated). Dynamic metrics cannot be inferred from static
/// text — append their wildcard lines by hand.
#[must_use]
pub fn dump_registry(uses: &[MetricUse]) -> String {
    let mut lines: Vec<String> = uses
        .iter()
        .map(|u| format!("{} {}", u.kind.label(), u.name))
        .collect();
    lines.sort();
    lines.dedup();
    let mut out = String::from(
        "# Metric registry: every obs name the workspace may emit.\n\
         # Format: <kind> <name> [dynamic]   — `*` suffix = prefix wildcard.\n\
         # Checked by `defender lint`; regenerate the static part with\n\
         # `defender lint --dump-registry` (dynamic lines are hand-kept).\n",
    );
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// Runs the `defender lint` command with `args` (without the program
/// name), printing to stdout, and returns the intended exit code.
///
/// # Errors
///
/// Usage and I/O problems (exit code 1 at the callers).
pub fn run(args: &[String]) -> Result<u8, String> {
    let opts = parse_options(args)?;
    defender_obs::enable();
    let root = match &opts.root {
        Some(r) => r.clone(),
        None => find_root()?,
    };
    let report = lint(&root)?;
    if opts.dump_registry {
        print!("{}", dump_registry(&report.metric_uses));
        return Ok(0);
    }
    if opts.json {
        println!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if opts.sidecar {
        let path = PathBuf::from("BENCH_lint.json");
        fs::write(&path, report.sidecar_json() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        // stderr, so `--format json` stdout stays machine-parseable.
        eprintln!("wrote {}", path.display());
    }
    Ok(if report.findings.is_empty() { 0 } else { 2 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_text_and_json() {
        let report = LintReport {
            findings: vec![Finding {
                rule: "panic".into(),
                path: "crates/x/src/a.rs".into(),
                line: 7,
                message: "boom".into(),
            }],
            files_scanned: 3,
            panic: PanicStats {
                sites: 2,
                annotated: 1,
                index_sites: 5,
            },
            ..LintReport::default()
        };
        let text = report.render_text();
        assert!(text.contains("crates/x/src/a.rs:7: [panic] boom"));
        assert!(text.contains("1 finding(s) (panic: 1) in 3 file(s)"));
        let json = defender_obs::json::parse(&report.render_json()).unwrap();
        assert_eq!(json.get("files_scanned").and_then(|v| v.as_u64()), Some(3));
        let sidecar = defender_obs::json::parse(&report.sidecar_json()).unwrap();
        assert_eq!(
            sidecar
                .get("counters")
                .and_then(|c| c.get("lint.findings.panic"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            sidecar.get("experiment").and_then(|v| v.as_str()),
            Some("lint")
        );
    }

    #[test]
    fn options_parse_and_reject() {
        let ok = parse_options(&["--format".into(), "json".into(), "--sidecar".into()]).unwrap();
        assert!(ok.json && ok.sidecar);
        assert!(parse_options(&["--format".into()]).is_err());
        assert!(parse_options(&["--wat".into()]).is_err());
    }

    #[test]
    fn dump_registry_sorts_and_dedups() {
        let mk = |kind, name: &str| MetricUse {
            kind,
            name: name.into(),
            path: "p".into(),
            line: 1,
        };
        let out = dump_registry(&[
            mk(rules::MetricKind::Span, "z"),
            mk(rules::MetricKind::Counter, "a.b"),
            mk(rules::MetricKind::Counter, "a.b"),
        ]);
        let body: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(body, vec!["counter a.b", "span z"]);
    }
}
