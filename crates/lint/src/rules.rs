//! The rule families: exactness, determinism, panic-freedom, metrics.
//!
//! Every rule is a pure function from tokenized sources (plus, for the
//! metric audit, registry/docs/baseline text) to [`Finding`]s — no I/O
//! here, so fixture tests can drive the rules on in-memory workspaces.
//! Each rule's scope is a constant list of workspace-relative path
//! prefixes, kept here with the reason it reaches the crates it does.
//!
//! All rules are **token-level**: they see the lexical stream, not the
//! semantic program. The soundness caveats this implies (e.g. a local
//! `struct Instant` would trip the determinism rule; a macro expanding to
//! `unwrap()` would evade the panic rule) are documented in DESIGN.md §12;
//! in exchange the checker needs no `syn`, no rustc, and runs in
//! milliseconds on the whole workspace.

use crate::source::SourceFile;
use crate::tokenizer::{Token, TokenKind};

/// One reported violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Rule family id (`exactness`, `determinism`, `panic`, `metrics`,
    /// `annotation`).
    pub rule: String,
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    pub(crate) fn new(rule: &str, path: &str, line: u32, message: String) -> Finding {
        Finding {
            rule: rule.to_string(),
            path: path.to_string(),
            line,
            message,
        }
    }
}

/// Whether the workspace-relative `path` starts with one of `prefixes`.
#[must_use]
pub(crate) fn in_scope(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// The exact-arithmetic crates, checked by the exactness, panic2 and cast
/// rules: NE probabilities are rationals (paper Thm. 1), so floats,
/// panics and truncating casts there corrupt an equilibrium.
pub(crate) const EXACT_SCOPE: &[&str] = &[
    "crates/num/src",
    "crates/lp/src",
    "crates/game/src",
    "crates/core/src",
    "crates/matching/src",
    "crates/cache/src",
    "crates/serve/src",
];

/// Files in [`EXACT_SCOPE`] exempt from the exactness rule: their floats
/// measure, they never compute an equilibrium.
pub(crate) const EXACTNESS_ALLOW: &[&str] = &[
    // Uniform f64 sampling for experiment drivers only.
    "crates/num/src/rng.rs",
    // Empirical catch-rate reporting, not NE computation.
    "crates/core/src/dynamics.rs",
    // The Monte-Carlo harness; the exact path never calls it.
    "crates/core/src/simulate.rs",
];

/// Library crates that must replay bit-identically: no wall clock, no
/// hash-order containers, no ambient randomness (`defender_num::rng` is
/// the only RNG). `bench` and `cli` are out because timing is their
/// purpose; `sweep`, `cache` and `serve` are out for the reasons given at
/// [`PANIC_SCOPE`].
pub(crate) const DETERMINISM_SCOPE: &[&str] = &[
    "crates/num/src",
    "crates/graph/src",
    "crates/matching/src",
    "crates/game/src",
    "crates/lp/src",
    "crates/core/src",
    "crates/par/src",
    "crates/obs/src",
    "crates/profile/src",
    "crates/lint/src",
    "src",
];

/// Library crates in which every potential panic site needs a fix or a
/// `// lint: allow(panic) <reason>` annotation.
///
/// `sweep`, `cache` and `serve` are here but not in
/// [`DETERMINISM_SCOPE`]:
/// - the sweep runner reads the wall clock (rates, ETAs, stall timeouts)
///   and its outputs are process-orchestration artifacts; only the merged
///   counters object is deterministic, which the bench
///   `sweep_determinism` tests and `ci.sh` enforce end to end;
/// - the cache times canonicalization (`cache.canon_ns`) off the wall
///   clock; its answers stay exact and replay-deterministic, which the
///   delta-replay tests enforce directly;
/// - a server reads the wall clock (batch linger windows, request
///   deadlines, latency histograms, flush intervals) and its live `srv.*`
///   telemetry is traffic-shaped by design; its answers stay exact and
///   its judged counters warmth- and jobs-invariant, which the serve
///   tests and the `ci.sh` serve gate enforce.
pub(crate) const PANIC_SCOPE: &[&str] = &[
    "crates/num/src",
    "crates/graph/src",
    "crates/matching/src",
    "crates/game/src",
    "crates/lp/src",
    "crates/core/src",
    "crates/par/src",
    "crates/obs/src",
    "crates/profile/src",
    "crates/lint/src",
    "crates/sweep/src",
    "crates/cache/src",
    "crates/serve/src",
    "src",
];

/// Idents the determinism rule forbids.
const FORBIDDEN: &[&str] = &[
    "SystemTime",
    "Instant",
    "HashMap",
    "HashSet",
    "RandomState",
    "thread_rng",
    "from_entropy",
    "getrandom",
];

/// Malformed `// lint:` comments become findings of the `annotation` rule
/// so a typo'd suppression fails loudly instead of silently not applying.
pub fn check_annotations(file: &SourceFile) -> Vec<Finding> {
    file.bad_annotations
        .iter()
        .map(|(line, msg)| Finding::new("annotation", &file.path, *line, msg.clone()))
        .collect()
}

/// **exactness** — no floating point in the exact-arithmetic crates.
///
/// Flags `f64`/`f32` idents (covers `as f64` casts, type ascriptions and
/// `f64::from` paths) and float literals in scoped files.
pub fn check_exactness(file: &SourceFile) -> Vec<Finding> {
    if !in_scope(&file.path, EXACT_SCOPE) || in_scope(&file.path, EXACTNESS_ALLOW) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (_, token) in file.code_tokens() {
        let message = if token.is_ident("f64") || token.is_ident("f32") {
            format!(
                "`{}` in an exact-arithmetic crate; NE probabilities are rationals \
                 (paper Thm. 1) — use Ratio, or annotate a measurement-only site with \
                 `// lint: allow(exactness) <reason>`",
                token.text
            )
        } else if token.kind == TokenKind::Float {
            format!(
                "float literal `{}` in an exact-arithmetic crate — use Ratio",
                token.text
            )
        } else {
            continue;
        };
        if !file.is_allowed("exactness", token.line) {
            findings.push(Finding::new("exactness", &file.path, token.line, message));
        }
    }
    findings
}

/// **determinism** — no wall clock, hash-order containers, or ambient
/// randomness in library crates; `defender_num::rng` is the only RNG.
pub fn check_determinism(file: &SourceFile) -> Vec<Finding> {
    if !in_scope(&file.path, DETERMINISM_SCOPE) {
        return Vec::new();
    }
    let mut findings = Vec::new();
    for (_, token) in file.code_tokens() {
        if token.kind != TokenKind::Ident || !FORBIDDEN.contains(&token.text.as_str()) {
            continue;
        }
        if file.is_allowed("determinism", token.line) {
            continue;
        }
        findings.push(Finding::new(
            "determinism",
            &file.path,
            token.line,
            format!(
                "`{}` breaks deterministic replay (wall clock / hash order / ambient \
                 randomness); use defender_num::rng or annotate the site",
                token.text
            ),
        ));
    }
    findings
}

/// Site counts the panic rule reports alongside its findings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PanicStats {
    /// `.unwrap()` / `.expect()` / `panic!`-family sites found in scope.
    pub sites: u64,
    /// Of those, sites suppressed by a `lint: allow(panic)` annotation.
    pub annotated: u64,
    /// `expr[index]`-adjacent sites (classified and counted, not failed:
    /// token-level analysis cannot tell checked from unchecked indexing).
    pub index_sites: u64,
}

/// **panic** — every potential-panic site in a library crate must be
/// fixed or carry a `// lint: allow(panic) <reason>` annotation.
pub fn check_panic(file: &SourceFile) -> (Vec<Finding>, PanicStats) {
    let mut stats = PanicStats::default();
    if !in_scope(&file.path, PANIC_SCOPE) {
        return (Vec::new(), stats);
    }
    let code: Vec<&Token> = file.code_tokens().map(|(_, t)| t).collect();
    let mut findings = Vec::new();
    for (i, token) in code.iter().enumerate() {
        // `expr[…]` indexing: an opening bracket directly after a value
        // (ident, literal, or a closing delimiter). Counted for the
        // classification report only.
        if token.is_punct('[') && i > 0 {
            let prev = code[i - 1];
            let after_value = matches!(
                prev.kind,
                TokenKind::Ident | TokenKind::Int | TokenKind::Str
            ) || prev.is_punct(')')
                || prev.is_punct(']');
            if after_value {
                stats.index_sites += 1;
            }
            continue;
        }
        let site = if token.is_punct('.')
            && code.get(i + 1).is_some_and(|t| {
                (t.is_ident("unwrap") || t.is_ident("expect"))
                    && code.get(i + 2).is_some_and(|p| p.is_punct('('))
            }) {
            let callee = &code[i + 1];
            Some((callee.line, format!(".{}()", callee.text)))
        } else if (token.is_ident("panic")
            || token.is_ident("unreachable")
            || token.is_ident("todo")
            || token.is_ident("unimplemented"))
            && code.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            Some((token.line, format!("{}!", token.text)))
        } else {
            None
        };
        let Some((line, what)) = site else { continue };
        stats.sites += 1;
        if file.is_allowed("panic", line) {
            stats.annotated += 1;
            continue;
        }
        findings.push(Finding::new(
            "panic",
            &file.path,
            line,
            format!(
                "{what} in a library crate — return a typed error, prove the invariant, \
                 or annotate with `// lint: allow(panic) <reason>`"
            ),
        ));
    }
    (findings, stats)
}

// ---------------------------------------------------------------------------
// Metric-registry audit
// ---------------------------------------------------------------------------

/// The metric registry of record, relative to the workspace root.
pub(crate) const REGISTRY: &str = "crates/obs/metrics_registry.txt";

/// The document every registered counter must appear in.
pub(crate) const METRIC_DOCS: &str = "EXPERIMENTS.md";

/// The directory of committed `BENCH_*.json` sidecars whose counter keys
/// must all be registered names.
pub(crate) const BASELINES: &str = "baselines";

/// The metric kinds the obs macros declare.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// `counter!`
    Counter,
    /// `gauge!`
    Gauge,
    /// `histogram!`
    Histogram,
    /// `span!`
    Span,
}

impl MetricKind {
    /// The macro ident → kind mapping.
    #[must_use]
    pub fn from_macro(name: &str) -> Option<MetricKind> {
        match name {
            "counter" => Some(MetricKind::Counter),
            "gauge" => Some(MetricKind::Gauge),
            "histogram" => Some(MetricKind::Histogram),
            "span" => Some(MetricKind::Span),
            _ => None,
        }
    }

    /// The registry-file keyword for the kind.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::Span => "span",
        }
    }
}

/// One `counter!("…")`-style call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricUse {
    /// Which macro.
    pub kind: MetricKind,
    /// The name literal's contents.
    pub name: String,
    /// File containing the call.
    pub path: String,
    /// 1-based line of the name literal.
    pub line: u32,
}

/// One line of `crates/obs/metrics_registry.txt`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Declared kind.
    pub kind: MetricKind,
    /// Metric name; a trailing `*` makes it a prefix wildcard.
    pub name: String,
    /// Marked `dynamic`: created at runtime (`leaked_counter`), so no
    /// static call site is required.
    pub dynamic: bool,
    /// 1-based line in the registry file.
    pub line: u32,
}

impl RegistryEntry {
    /// Whether this entry declares `name` (exact or wildcard-prefix).
    #[must_use]
    pub fn matches(&self, name: &str) -> bool {
        match self.name.strip_suffix('*') {
            Some(prefix) => name.starts_with(prefix),
            None => self.name == name,
        }
    }
}

/// Extracts every `counter!`/`gauge!`/`histogram!`/`span!` name literal
/// from non-test code: `<macro> ! ( "<name>"` in the token stream.
pub fn extract_metric_uses(file: &SourceFile) -> Vec<MetricUse> {
    let code: Vec<&Token> = file.code_tokens().map(|(_, t)| t).collect();
    let mut uses = Vec::new();
    for (i, token) in code.iter().enumerate() {
        if token.kind != TokenKind::Ident {
            continue;
        }
        let Some(kind) = MetricKind::from_macro(&token.text) else {
            continue;
        };
        if !code.get(i + 1).is_some_and(|t| t.is_punct('!'))
            || !code.get(i + 2).is_some_and(|t| t.is_punct('('))
        {
            continue;
        }
        let Some(name_token) = code.get(i + 3) else {
            continue;
        };
        let Some(name) = name_token.str_contents() else {
            continue; // non-literal name: invisible to the audit
        };
        uses.push(MetricUse {
            kind,
            name: name.to_string(),
            path: file.path.clone(),
            line: name_token.line,
        });
    }
    uses
}

/// Parses `metrics_registry.txt`: one `<kind> <name> [dynamic]` per line,
/// `#` comments, blank lines ignored.
///
/// # Errors
///
/// Reports the first malformed line.
pub fn parse_registry(text: &str) -> Result<Vec<RegistryEntry>, String> {
    let mut entries = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut words = line.split_whitespace();
        let kind_word = words.next().unwrap_or("");
        let kind = match kind_word {
            "counter" => MetricKind::Counter,
            "gauge" => MetricKind::Gauge,
            "histogram" => MetricKind::Histogram,
            "span" => MetricKind::Span,
            other => return Err(format!("registry line {}: unknown kind `{other}`", i + 1)),
        };
        let name = words
            .next()
            .ok_or(format!("registry line {}: missing metric name", i + 1))?;
        let dynamic = match words.next() {
            None => false,
            Some("dynamic") => true,
            Some(extra) => {
                return Err(format!("registry line {}: unexpected `{extra}`", i + 1));
            }
        };
        if words.next().is_some() {
            return Err(format!("registry line {}: too many fields", i + 1));
        }
        entries.push(RegistryEntry {
            kind,
            name: name.to_string(),
            dynamic,
            line: (i + 1) as u32,
        });
    }
    Ok(entries)
}

/// Auxiliary inputs to the metric audit, already read from disk.
#[derive(Clone, Debug, Default)]
pub struct MetricsInputs {
    /// Workspace-relative path of the registry file (for finding locations).
    pub registry_path: String,
    /// Parsed registry.
    pub registry: Vec<RegistryEntry>,
    /// Documentation files as `(path, text)`; counters must appear in at
    /// least one of them.
    pub docs: Vec<(String, String)>,
    /// Benchmark baselines as `(path, counter keys)`; every key must be
    /// a registered name.
    pub baselines: Vec<(String, Vec<String>)>,
}

/// **metrics** — cross-checks call sites, the registry, EXPERIMENTS.md and
/// the committed baselines; any disagreement is a finding.
pub fn check_metrics(uses: &[MetricUse], inputs: &MetricsInputs) -> Vec<Finding> {
    let mut findings = Vec::new();
    // Code → registry: every use declared, with the declared kind.
    for u in uses {
        match inputs.registry.iter().find(|e| e.matches(&u.name)) {
            None => findings.push(Finding::new(
                "metrics",
                &u.path,
                u.line,
                format!(
                    "{} `{}` is not declared in {}",
                    u.kind.label(),
                    u.name,
                    inputs.registry_path
                ),
            )),
            Some(entry) if entry.kind != u.kind => findings.push(Finding::new(
                "metrics",
                &u.path,
                u.line,
                format!(
                    "`{}` used as a {} but registered as a {}",
                    u.name,
                    u.kind.label(),
                    entry.kind.label()
                ),
            )),
            Some(_) => {}
        }
    }
    // Registry → code: non-dynamic entries must still be emitted somewhere.
    for entry in &inputs.registry {
        if entry.dynamic {
            continue;
        }
        if !uses.iter().any(|u| entry.matches(&u.name)) {
            findings.push(Finding::new(
                "metrics",
                &inputs.registry_path,
                entry.line,
                format!(
                    "orphaned {} `{}`: registered but no longer emitted by any code",
                    entry.kind.label(),
                    entry.name
                ),
            ));
        }
    }
    // Registry → docs: counters are user-facing experiment outputs and
    // must be documented (wildcards by their prefix).
    for entry in &inputs.registry {
        if entry.kind != MetricKind::Counter {
            continue;
        }
        let needle = entry.name.strip_suffix('*').unwrap_or(&entry.name);
        if !inputs.docs.iter().any(|(_, text)| text.contains(needle)) {
            let docs_list: Vec<&str> = inputs.docs.iter().map(|(p, _)| p.as_str()).collect();
            findings.push(Finding::new(
                "metrics",
                &inputs.registry_path,
                entry.line,
                format!(
                    "counter `{}` is not documented in {}",
                    entry.name,
                    docs_list.join(", ")
                ),
            ));
        }
    }
    // Baselines → registry: committed sidecar counter keys must all be
    // registered names, so the bench gate and the lint registry agree.
    for (path, keys) in &inputs.baselines {
        for key in keys {
            if !inputs.registry.iter().any(|e| e.matches(key)) {
                findings.push(Finding::new(
                    "metrics",
                    path,
                    0,
                    format!("baseline counter `{key}` is not a registered metric name"),
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::parse(path, src).unwrap()
    }

    #[test]
    fn exactness_flags_floats_and_casts() {
        let bad = file(
            "crates/num/src/ratio.rs",
            "fn f(x: i64) -> f64 { x as f64 * 0.5 }\n",
        );
        let findings = check_exactness(&bad);
        assert_eq!(findings.len(), 3, "{findings:?}"); // f64, f64, 0.5
        let allowed = file("crates/num/src/rng.rs", "fn f() -> f64 { 0.5 }\n");
        assert!(check_exactness(&allowed).is_empty());
        let out_of_scope = file("crates/bench/src/timer.rs", "fn f() -> f64 { 0.5 }\n");
        assert!(check_exactness(&out_of_scope).is_empty());
    }

    #[test]
    fn exactness_respects_annotations_and_strings() {
        let src = "// lint: allow(exactness) report string only\n\
                   fn f(x: i64) -> f64 { g(x) }\n\
                   const LABEL: &str = \"uses f64 internally\";\n";
        assert!(check_exactness(&file("crates/num/src/report.rs", src)).is_empty());
    }

    #[test]
    fn determinism_flags_forbidden_idents() {
        let bad = file(
            "crates/core/src/run.rs",
            "use std::collections::HashMap;\nfn t() { let _ = Instant::now(); }\n",
        );
        let findings = check_determinism(&bad);
        assert_eq!(findings.len(), 2);
        assert!(findings[0].message.contains("HashMap"));
        let out_of_scope = file("crates/sweep/src/runner.rs", "fn t() { Instant::now(); }\n");
        assert!(check_determinism(&out_of_scope).is_empty());
    }

    #[test]
    fn panic_sites_classified_and_annotated() {
        let src = "fn f(v: &[u64], i: usize) -> u64 {\n\
                   let x = v.get(i).unwrap(); // lint: allow(panic) caller checked bounds\n\
                   let y = v.first().expect(\"nonempty\");\n\
                   if i > v.len() { panic!(\"oob\") }\n\
                   v[i] + x + y\n\
                   }\n";
        let (findings, stats) = check_panic(&file("crates/graph/src/a.rs", src));
        assert_eq!(stats.sites, 3);
        assert_eq!(stats.annotated, 1);
        assert_eq!(stats.index_sites, 1, "v[i]");
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains(".expect()"));
        assert!(findings[1].message.contains("panic!"));
    }

    #[test]
    fn panic_free_fn_named_expect_is_not_a_site() {
        // obs::json has a free `expect(bytes, …)` helper — only method
        // calls (preceded by `.`) count.
        let src = "fn expect(b: &[u8]) {}\nfn f(b: &[u8]) { expect(b); }\n";
        let (findings, stats) = check_panic(&file("crates/obs/src/json.rs", src));
        assert!(findings.is_empty());
        assert_eq!(stats.sites, 0);
    }

    #[test]
    fn metric_uses_extracted_with_paths_and_kinds() {
        let src = "fn f() {\n\
                   defender_obs::counter!(\"a.b\").incr();\n\
                   let _s = span!(\"phase\");\n\
                   }\n\
                   #[cfg(test)]\nmod tests { fn t() { crate::counter!(\"test.only\").incr(); } }\n";
        let uses = extract_metric_uses(&file("crates/x/src/a.rs", src));
        assert_eq!(uses.len(), 2, "test-code uses are masked: {uses:?}");
        assert_eq!(uses[0].kind, MetricKind::Counter);
        assert_eq!(uses[0].name, "a.b");
        assert_eq!(uses[1].kind, MetricKind::Span);
    }

    #[test]
    fn registry_parses_wildcards_and_rejects_junk() {
        let entries = parse_registry(
            "# header\ncounter a.b\ngauge par.jobs\ncounter par.tasks.w* dynamic\nspan phase\n",
        )
        .unwrap();
        assert_eq!(entries.len(), 4);
        assert!(entries[2].dynamic);
        assert!(entries[2].matches("par.tasks.w3"));
        assert!(!entries[2].matches("par.other"));
        assert!(parse_registry("widget a.b\n").is_err());
        assert!(parse_registry("counter\n").is_err());
        assert!(parse_registry("counter a.b static\n").is_err());
    }

    #[test]
    fn metrics_audit_finds_all_disagreements() {
        let registry = parse_registry(
            "counter used.ok\ncounter orphan.gone\ncounter undoc.ed\nspan used.ok.span\n",
        )
        .unwrap();
        let uses = vec![
            MetricUse {
                kind: MetricKind::Counter,
                name: "used.ok".into(),
                path: "crates/x/src/a.rs".into(),
                line: 3,
            },
            MetricUse {
                kind: MetricKind::Counter,
                name: "undoc.ed".into(),
                path: "crates/x/src/a.rs".into(),
                line: 4,
            },
            MetricUse {
                kind: MetricKind::Gauge,
                name: "used.ok.span".into(), // kind mismatch
                path: "crates/x/src/b.rs".into(),
                line: 9,
            },
            MetricUse {
                kind: MetricKind::Counter,
                name: "never.registered".into(),
                path: "crates/x/src/b.rs".into(),
                line: 12,
            },
        ];
        let inputs = MetricsInputs {
            registry_path: "crates/obs/metrics_registry.txt".into(),
            registry,
            docs: vec![(
                "EXPERIMENTS.md".into(),
                "`used.ok` counts things; `orphan.gone` counted things".into(),
            )],
            baselines: vec![(
                "baselines/BENCH_E1.json".into(),
                vec!["used.ok".into(), "mystery.key".into()],
            )],
        };
        let findings = check_metrics(&uses, &inputs);
        let msgs: Vec<&str> = findings.iter().map(|f| f.message.as_str()).collect();
        assert!(
            msgs.iter().any(|m| m.contains("never.registered")),
            "{msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| m.contains("used as a gauge")),
            "{msgs:?}"
        );
        assert!(msgs
            .iter()
            .any(|m| m.contains("orphaned counter `orphan.gone`")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("counter `undoc.ed` is not documented")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("baseline counter `mystery.key`")));
        assert_eq!(findings.len(), 5, "{msgs:?}");
    }

    #[test]
    fn clean_workspace_produces_no_metric_findings() {
        let registry = parse_registry("counter a.b\ncounter dyn.w* dynamic\nspan phase\n").unwrap();
        let uses = vec![
            MetricUse {
                kind: MetricKind::Counter,
                name: "a.b".into(),
                path: "crates/x/src/a.rs".into(),
                line: 1,
            },
            MetricUse {
                kind: MetricKind::Span,
                name: "phase".into(),
                path: "crates/x/src/a.rs".into(),
                line: 2,
            },
        ];
        let inputs = MetricsInputs {
            registry_path: "r.txt".into(),
            registry,
            docs: vec![("D.md".into(), "`a.b` and `dyn.w` prefixed counters".into())],
            baselines: vec![("b.json".into(), vec!["a.b".into(), "dyn.w7".into()])],
        };
        assert!(check_metrics(&uses, &inputs).is_empty());
    }
}
