//! `bench diff` — the counter regression gate over `BENCH_*.json` sidecars.
//!
//! Every experiment writes a sidecar ([`crate::RunReport`]) recording its
//! per-phase wall time and the harvested counter registry. This module
//! loads two of them — a committed baseline and a fresh run — compares
//! them counter by counter, and renders a verdict table. Counters are
//! deterministic algorithm work (simplex pivots, blossom augmentations),
//! so a counter that grew by more than [`THRESHOLD`] — or appeared from
//! zero — is a **regression**, and the CLI (`defender bench diff`) turns
//! any regression into a non-zero exit. A baseline counter *missing* from
//! the fresh run also fails ([`Verdict::Orphaned`]): a gate that silently
//! stops measuring a quantity would pass forever after, so lost
//! instrumentation must be acknowledged by refreshing the baseline.
//!
//! Phase wall times depend on the machine, so the gate never judges them;
//! same-machine wall time is the repository benchmark's job (`perfbench/`,
//! with its bounds in `BENCHMARK.json`).

use std::path::Path;

use defender_obs::json::{self, JsonValue};

use crate::Table;

/// Relative counter growth tolerated before a counter regresses (20%).
pub const THRESHOLD: f64 = 0.20;

/// A parsed `BENCH_<experiment>.json` sidecar.
#[derive(Clone, Debug, PartialEq)]
pub struct Sidecar {
    /// The experiment name recorded by the run.
    pub experiment: String,
    /// Phases in recorded order as `(name, wall_seconds)`; the gate
    /// never judges them.
    pub phases: Vec<(String, f64)>,
    /// Harvested counters as `(name, value)`. The optional `parallelism`
    /// section (execution shape, which varies with `--jobs` and cache
    /// warmth) is never read.
    pub counters: Vec<(String, u64)>,
}

impl Sidecar {
    /// Parses a sidecar document (the schema [`crate::RunReport::to_json`]
    /// emits).
    ///
    /// # Errors
    ///
    /// Rejects documents missing the `experiment`/`phases`/`counters`
    /// structure.
    pub fn parse(text: &str) -> Result<Sidecar, String> {
        let doc = json::parse(text)?;
        let experiment = doc
            .get("experiment")
            .and_then(JsonValue::as_str)
            .ok_or("missing string field `experiment`")?
            .to_string();
        let mut phases = Vec::new();
        for (i, phase) in doc
            .get("phases")
            .and_then(JsonValue::as_array)
            .ok_or("missing array field `phases`")?
            .iter()
            .enumerate()
        {
            let name = phase
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or(format!("phase {i}: missing `name`"))?;
            let seconds = phase
                .get("wall_seconds")
                .and_then(JsonValue::as_f64)
                .ok_or(format!("phase {i}: missing `wall_seconds`"))?;
            phases.push((name.to_string(), seconds));
        }
        let mut counters = Vec::new();
        for (name, value) in doc
            .get("counters")
            .and_then(JsonValue::as_object)
            .ok_or("missing object field `counters`")?
        {
            let value = value
                .as_u64()
                .ok_or(format!("counter `{name}`: not a non-negative integer"))?;
            counters.push((name.clone(), value));
        }
        Ok(Sidecar {
            experiment,
            phases,
            counters,
        })
    }

    /// Loads and parses a sidecar file.
    ///
    /// # Errors
    ///
    /// Reports I/O and parse failures with the path in the message.
    pub fn load(path: &Path) -> Result<Sidecar, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Sidecar::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The judgement for one compared counter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance.
    Ok,
    /// Shrunk beyond the threshold — the good direction.
    Improved,
    /// Grew beyond the threshold, or appeared from zero — fails the gate.
    Regressed,
    /// Present in the baseline, absent in the current run — fails the
    /// gate. A vanished counter means instrumentation was dropped (or the
    /// baseline is stale), and a gate that silently stops measuring a
    /// quantity would pass forever after.
    Orphaned,
    /// Present only in the current run (informational).
    NewInCurrent,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Regressed => "REGRESSED",
            Verdict::Orphaned => "ORPHANED",
            Verdict::NewInCurrent => "new",
        }
    }
}

/// One compared counter.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Counter name.
    pub name: String,
    /// Baseline value.
    pub baseline: Option<u64>,
    /// Current value.
    pub current: Option<u64>,
    /// The judgement.
    pub verdict: Verdict,
}

impl DiffRow {
    /// `current / baseline` when both sides are present and the baseline
    /// is non-zero.
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        match (self.baseline, self.current) {
            (Some(b), Some(c)) if b > 0 => Some(c as f64 / b as f64),
            _ => None,
        }
    }
}

/// The outcome of comparing two sidecars.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// The experiment name (from the baseline).
    pub experiment: String,
    /// One row per counter: baseline order, then current-only counters.
    pub rows: Vec<DiffRow>,
}

impl DiffReport {
    /// Number of counters judged `verdict`.
    #[must_use]
    pub fn count(&self, verdict: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == verdict).count()
    }

    /// Whether the gate passes (no regressions and no orphaned counters).
    #[must_use]
    pub fn passed(&self) -> bool {
        self.count(Verdict::Regressed) == 0 && self.count(Verdict::Orphaned) == 0
    }

    /// Renders the verdict table plus a one-line summary.
    #[must_use]
    pub fn render(&self) -> String {
        let mut table = Table::new(vec!["counter", "baseline", "current", "ratio", "verdict"]);
        let fmt = |v: Option<u64>| v.map_or("-".to_string(), |v| v.to_string());
        for row in &self.rows {
            table.row(vec![
                row.name.clone(),
                fmt(row.baseline),
                fmt(row.current),
                row.ratio().map_or("-".to_string(), |r| format!("{r:.2}x")),
                row.verdict.label().to_string(),
            ]);
        }
        let mut out = format!(
            "bench diff: {} (counters, threshold +{:.0}%)\n",
            self.experiment,
            THRESHOLD * 100.0
        );
        out.push_str(&table.render());
        let regressions = self.count(Verdict::Regressed);
        let orphans = self.count(Verdict::Orphaned);
        if regressions == 0 && orphans == 0 {
            out.push_str("verdict: PASS — no counter regressed\n");
        } else {
            let mut causes = Vec::new();
            if regressions > 0 {
                causes.push(format!(
                    "{regressions} counter(s) regressed beyond the threshold"
                ));
            }
            if orphans > 0 {
                causes.push(format!(
                    "{orphans} baseline counter(s) missing from the current run"
                ));
            }
            out.push_str(&format!("verdict: FAIL — {}\n", causes.join("; ")));
        }
        out
    }
}

fn judge(baseline: u64, current: u64) -> Verdict {
    if baseline == 0 {
        return if current == 0 {
            Verdict::Ok
        } else {
            // Work appearing from nothing cannot be expressed as a ratio;
            // for deterministic counters it is always a real change.
            Verdict::Regressed
        };
    }
    let ratio = current as f64 / baseline as f64;
    if ratio > 1.0 + THRESHOLD {
        Verdict::Regressed
    } else if ratio < 1.0 - THRESHOLD {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Compares the counters of two sidecars; phases are not judged.
#[must_use]
pub fn diff(baseline: &Sidecar, current: &Sidecar) -> DiffReport {
    let lookup = |counters: &[(String, u64)], name: &str| {
        counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    };
    let mut rows = Vec::new();
    for (name, base) in &baseline.counters {
        let current = lookup(&current.counters, name);
        rows.push(DiffRow {
            name: name.clone(),
            baseline: Some(*base),
            current,
            verdict: current.map_or(Verdict::Orphaned, |cur| judge(*base, cur)),
        });
    }
    for (name, cur) in &current.counters {
        if lookup(&baseline.counters, name).is_none() {
            rows.push(DiffRow {
                name: name.clone(),
                baseline: None,
                current: Some(*cur),
                verdict: Verdict::NewInCurrent,
            });
        }
    }
    DiffReport {
        experiment: baseline.experiment.clone(),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sidecar(counters: &[(&str, u64)]) -> Sidecar {
        Sidecar {
            experiment: "e_test".to_string(),
            phases: Vec::new(),
            counters: counters.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
        }
    }

    #[test]
    fn identical_sidecars_pass() {
        let s = sidecar(&[("lp.pivots", 100)]);
        let report = diff(&s, &s.clone());
        assert!(report.passed());
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn threshold_is_respected() {
        let base = sidecar(&[("lp.pivots", 100)]);
        assert!(diff(&base, &sidecar(&[("lp.pivots", 115)])).passed());
        let report = diff(&base, &sidecar(&[("lp.pivots", 121)]));
        assert_eq!(report.count(Verdict::Regressed), 1);
        let rendered = report.render();
        assert!(
            rendered.contains("REGRESSED") && rendered.contains("1.21x"),
            "{rendered}"
        );
    }

    #[test]
    fn counters_have_no_noise_floor_and_flag_growth() {
        let base = sidecar(&[("lp.pivots", 100), ("new.work", 0)]);
        let cur = sidecar(&[("lp.pivots", 150), ("new.work", 5)]);
        let report = diff(&base, &cur);
        assert_eq!(report.count(Verdict::Regressed), 2, "{}", report.render());
    }

    #[test]
    fn cache_counters_break_the_gate_unless_segregated() {
        // A baseline recorded from a `--cache` run would pin run-variant
        // `cache.*` state if those counters sat in the judged section: a
        // later warm run has misses == 0 → ORPHANED; a later cold run of
        // a cache-less binary drops them entirely → ORPHANED too. That is
        // exactly why `RunReport::is_execution_shape` routes `cache.*`
        // into the unjudged parallelism section.
        let base = sidecar(&[("lp.simplex.pivots", 100), ("cache.misses", 728)]);
        let cur = sidecar(&[("lp.simplex.pivots", 100)]);
        let report = diff(&base, &cur);
        assert_eq!(report.count(Verdict::Orphaned), 1);
        assert!(!report.passed());
        assert!(report.render().contains("ORPHANED"), "{}", report.render());

        // Segregated, the same comparison is clean: cache.* lives in the
        // parallelism section, which the gate never reads.
        let parse = |parallelism: &str| {
            Sidecar::parse(&format!(
                r#"{{"experiment": "x", "phases": [], "counters": {{"lp.simplex.pivots": 100}},
                    "parallelism": {{{parallelism}}}}}"#
            ))
            .unwrap()
        };
        let warm = parse(r#""cache.canon_ns": 123456, "cache.hits": 728, "cache.misses": 0"#);
        let cold = parse(r#""cache.canon_ns": 654321, "cache.hits": 0, "cache.misses": 728"#);
        let report = diff(&cold, &warm);
        assert!(report.passed(), "{}", report.render());
        assert_eq!(report.count(Verdict::Orphaned), 0);
    }

    #[test]
    fn missing_and_new_rows_warn_without_failing() {
        let base = sidecar(&[("lp.pivots", 100)]);
        let cur = sidecar(&[("lp.pivots", 100), ("se.supports", 7)]);
        let report = diff(&base, &cur);
        assert!(report.passed());
        assert_eq!(report.rows[1].verdict, Verdict::NewInCurrent);
        assert!(report.render().contains("new"));
    }

    #[test]
    fn baseline_counter_missing_from_current_fails() {
        let base = sidecar(&[("lp.pivots", 100), ("se.supports", 7)]);
        let cur = sidecar(&[("lp.pivots", 100)]);
        let report = diff(&base, &cur);
        assert_eq!(report.count(Verdict::Orphaned), 1);
        assert_eq!(report.count(Verdict::Regressed), 0);
        assert!(!report.passed());
        let rendered = report.render();
        assert!(
            rendered.contains("ORPHANED") && rendered.contains("missing from the current run"),
            "{rendered}"
        );
    }

    #[test]
    fn improvements_are_reported() {
        let base = sidecar(&[("lp.pivots", 200)]);
        let cur = sidecar(&[("lp.pivots", 100)]);
        let report = diff(&base, &cur);
        assert!(report.passed());
        assert!(report.render().contains("improved"));
    }

    #[test]
    fn parses_run_report_output() {
        let mut rr = crate::RunReport::new("e_round_trip");
        rr.phase("sweep", std::time::Duration::from_millis(1500));
        rr.counter("lp.pivots", 42);
        let parsed = Sidecar::parse(&rr.to_json()).unwrap();
        assert_eq!(parsed.experiment, "e_round_trip");
        assert_eq!(parsed.phases.len(), 1);
        assert!((parsed.phases[0].1 - 1.5).abs() < 1e-9);
        assert_eq!(parsed.counters, vec![("lp.pivots".to_string(), 42)]);
    }

    #[test]
    fn rejects_malformed_sidecars() {
        assert!(Sidecar::parse("not json").is_err());
        assert!(Sidecar::parse("{}").is_err());
        assert!(Sidecar::parse(r#"{"experiment": "x", "phases": [{}], "counters": {}}"#).is_err());
    }
}
