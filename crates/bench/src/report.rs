//! Plain-text table rendering and machine-readable run reports for
//! experiment output.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use defender_obs::json::{JsonArray, JsonObject};

/// A right-aligned text table printed in GitHub-markdown style, so
/// experiment output can be pasted straight into EXPERIMENTS.md.
#[derive(Clone, Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Table {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    ///
    /// # Panics
    ///
    /// Panics if the row length differs from the header length.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Table {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:>w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the rendered table to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// A machine-readable record of one experiment run: named phases with
/// wall-clock time plus algorithm counters harvested from `defender-obs`.
///
/// Experiment binaries call [`RunReport::write_sidecar`] at the end of a
/// run to drop a `BENCH_<experiment>.json` file next to the working
/// directory, so successive runs can be diffed mechanically (the JSON is
/// emitted by the same stable writer the obs registry uses).
#[derive(Debug)]
pub struct RunReport {
    experiment: String,
    phases: Vec<(String, Duration)>,
    counters: Vec<(String, u64)>,
    parallelism: Vec<(String, u64)>,
    profile: Vec<(String, u64)>,
}

impl RunReport {
    /// Starts an empty report for `experiment` (e.g. `"e5_atuple_runtime"`).
    #[must_use]
    pub fn new(experiment: &str) -> RunReport {
        RunReport {
            experiment: experiment.to_string(),
            phases: Vec::new(),
            counters: Vec::new(),
            parallelism: Vec::new(),
            profile: Vec::new(),
        }
    }

    /// Records a completed phase with its wall-clock duration.
    pub fn phase(&mut self, name: &str, elapsed: Duration) -> &mut RunReport {
        self.phases.push((name.to_string(), elapsed));
        self
    }

    /// Runs `body` as a named phase, recording its wall-clock time.
    pub fn timed_phase<T>(&mut self, name: &str, body: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = body();
        self.phase(name, start.elapsed());
        out
    }

    /// Records one algorithm counter.
    pub fn counter(&mut self, name: &str, value: u64) -> &mut RunReport {
        self.counters.push((name.to_string(), value));
        self
    }

    /// Records one execution-shape metric into the "parallelism" section
    /// (used by the sweep merger for `sw.*` shard-shape entries).
    pub fn parallelism(&mut self, name: &str, value: u64) -> &mut RunReport {
        self.parallelism.push((name.to_string(), value));
        self
    }

    /// Whether `name` belongs in the "parallelism" section rather than
    /// the jobs-invariant "counters" object: the `par.*` namespace varies
    /// with `--jobs`, the `sw.*` namespace with `--shards`, `cache.*`
    /// with the warmth of the `--cache` store (hits on a second run are
    /// misses on the first; `cache.canon_ns` is wall time), and `srv.*`
    /// with serving traffic shape (hit/miss/coalesced splits, queue
    /// depth, latency — all warmth- and timing-variant by design; the
    /// serve sidecar's judged counters come from the cache's stored
    /// per-class deltas instead).
    fn is_execution_shape(name: &str) -> bool {
        ["par.", "sw.", "cache.", "srv."]
            .iter()
            .any(|ns| name.starts_with(ns))
    }

    /// Copies every counter from an obs snapshot into the report.
    ///
    /// The `par.*` namespace is an execution-shape record (pool width,
    /// per-worker task splits) that legitimately varies with `--jobs`,
    /// and `sw.*` (shard window shape) varies with `--shards`; both go
    /// into the separate "parallelism" section so the "counters" object
    /// stays byte-identical for every pool and shard width.
    pub fn counters_from(&mut self, snapshot: &defender_obs::Snapshot) -> &mut RunReport {
        for (name, value) in &snapshot.counters {
            if Self::is_execution_shape(name) {
                self.parallelism.push((name.clone(), *value));
            } else {
                self.counters.push((name.clone(), *value));
            }
        }
        for (name, value) in &snapshot.gauges {
            if Self::is_execution_shape(name) {
                self.parallelism.push((name.clone(), *value));
            }
        }
        self
    }

    /// Appends the span attribution of a trace profile: `prof.calls.*`
    /// and `prof.self_ns.*` into the `profile` section (self-times are
    /// machine-sensitive, so they stay out of the jobs-invariant
    /// `counters` object), and the jobs-variant `prof.worker_busy_ppm.*`
    /// into the `parallelism` section next to `par.tasks.w*`.
    pub fn profile_from(&mut self, profile: &defender_profile::Profile) -> &mut RunReport {
        for span in &profile.spans {
            self.profile
                .push((format!("prof.calls.{}", span.name), span.calls));
        }
        for span in &profile.spans {
            self.profile
                .push((format!("prof.self_ns.{}", span.name), span.self_ns));
        }
        for worker in &profile.workers {
            self.parallelism.push((
                format!("prof.worker_busy_ppm.{}", worker.label),
                worker.busy_ppm,
            ));
        }
        self
    }

    /// The report as a stable JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut phases = JsonArray::new();
        for (name, elapsed) in &self.phases {
            let mut p = JsonObject::new();
            p.field_str("name", name);
            p.field_f64("wall_seconds", elapsed.as_secs_f64());
            phases.push_raw(&p.finish());
        }
        let mut counters = JsonObject::new();
        for (name, value) in &self.counters {
            counters.field_u64(name, *value);
        }
        let mut root = JsonObject::new();
        root.field_str("experiment", &self.experiment);
        root.field_raw("phases", &phases.finish());
        root.field_raw("counters", &counters.finish());
        if !self.parallelism.is_empty() {
            let mut par = JsonObject::new();
            for (name, value) in &self.parallelism {
                par.field_u64(name, *value);
            }
            root.field_raw("parallelism", &par.finish());
        }
        if !self.profile.is_empty() {
            let mut prof = JsonObject::new();
            for (name, value) in &self.profile {
                prof.field_u64(name, *value);
            }
            root.field_raw("profile", &prof.finish());
        }
        root.finish()
    }

    /// Writes `BENCH_<experiment>.json` in the current directory and
    /// returns its path.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write.
    pub fn write_sidecar(&self) -> std::io::Result<PathBuf> {
        let path = PathBuf::from(format!("BENCH_{}.json", self.experiment));
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }

    /// The standard tail call of every experiment: harvests the counter
    /// registry from the current obs snapshot, writes the sidecar, and
    /// reports the outcome (a failed write warns on stderr rather than
    /// failing the run — the experiment result itself still stands).
    ///
    /// Publishes the trace-ring drop total into `trace.dropped_events`
    /// first, so truncated timelines surface in the sidecar. Under
    /// `--profile` ([`crate::profiling_enabled`]) it also harvests the
    /// live trace through `defender-profile` and appends the span
    /// attribution (see [`RunReport::profile_from`]).
    pub fn harvest_and_write(&mut self) {
        defender_obs::trace::publish_drop_counter();
        if crate::profiling_enabled() {
            let profile =
                defender_profile::Profile::build(&defender_profile::TraceInput::from_live());
            self.profile_from(&profile);
            eprint!("{}", defender_profile::to_table(&profile, 10));
        }
        self.counters_from(&defender_obs::snapshot());
        match self.write_sidecar() {
            Ok(path) => println!("\nwrote {}", path.display()),
            Err(e) => eprintln!("\ncould not write BENCH sidecar: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown() {
        let mut t = Table::new(vec!["k", "gain"]);
        t.row(vec!["1", "2"]).row(vec!["10", "20/3"]);
        let s = t.render();
        assert!(s.contains("|  k | gain |"));
        assert!(s.contains("| 10 | 20/3 |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked() {
        Table::new(vec!["a"]).row(vec!["1", "2"]);
    }

    #[test]
    fn par_metrics_are_segregated_from_counters() {
        let snapshot = defender_obs::Snapshot {
            counters: vec![
                ("algo.pivots".to_string(), 7),
                ("par.tasks.w0".to_string(), 12),
                ("par.tasks.w1".to_string(), 5),
            ],
            gauges: vec![("other.gauge".to_string(), 3), ("par.jobs".to_string(), 2)],
            histograms: Vec::new(),
        };
        let mut report = RunReport::new("unit");
        report.counters_from(&snapshot);
        let json = report.to_json();
        // The jobs-invariant counters object holds only algorithm work.
        assert!(json.contains(r#""counters": {"algo.pivots": 7}"#), "{json}");
        // Execution shape lands in the parallelism section.
        assert!(json.contains(r#""parallelism""#), "{json}");
        assert!(json.contains(r#""par.jobs": 2"#), "{json}");
        assert!(json.contains(r#""par.tasks.w0": 12"#), "{json}");
        // Non-par gauges are not counters and stay out entirely.
        assert!(!json.contains("other.gauge"), "{json}");
    }

    #[test]
    fn sw_metrics_are_segregated_like_par() {
        let snapshot = defender_obs::Snapshot {
            counters: vec![
                ("algo.pivots".to_string(), 7),
                ("sw.window_instances".to_string(), 6),
            ],
            gauges: vec![
                ("sw.shard_index".to_string(), 1),
                ("sw.shard_total".to_string(), 3),
            ],
            histograms: Vec::new(),
        };
        let mut report = RunReport::new("unit");
        report.counters_from(&snapshot);
        let json = report.to_json();
        assert!(json.contains(r#""counters": {"algo.pivots": 7}"#), "{json}");
        assert!(json.contains(r#""sw.window_instances": 6"#), "{json}");
        assert!(json.contains(r#""sw.shard_index": 1"#), "{json}");
        assert!(json.contains(r#""sw.shard_total": 3"#), "{json}");
    }

    #[test]
    fn srv_metrics_are_segregated_like_par() {
        // Serving counters split by cache warmth and traffic shape
        // (hit/miss/coalesced, classes in flight); they must never land
        // in the judged counters object the bench gate diffs.
        let snapshot = defender_obs::Snapshot {
            counters: vec![
                ("algo.pivots".to_string(), 7),
                ("srv.hits".to_string(), 40),
                ("srv.misses".to_string(), 2),
                ("cache.hits".to_string(), 41),
            ],
            gauges: vec![("srv.inflight".to_string(), 3)],
            histograms: Vec::new(),
        };
        let mut report = RunReport::new("unit");
        report.counters_from(&snapshot);
        let json = report.to_json();
        assert!(json.contains(r#""counters": {"algo.pivots": 7}"#), "{json}");
        assert!(json.contains(r#""srv.hits": 40"#), "{json}");
        assert!(json.contains(r#""srv.misses": 2"#), "{json}");
        assert!(json.contains(r#""srv.inflight": 3"#), "{json}");
        assert!(json.contains(r#""cache.hits": 41"#), "{json}");
    }

    #[test]
    fn cache_metrics_are_segregated_like_par() {
        let snapshot = defender_obs::Snapshot {
            counters: vec![
                ("algo.pivots".to_string(), 7),
                ("cache.canon_ns".to_string(), 987),
                ("cache.hits".to_string(), 3),
                ("cache.misses".to_string(), 1),
            ],
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        let mut report = RunReport::new("unit");
        report.counters_from(&snapshot);
        let json = report.to_json();
        // Run-variant cache state never lands in the judged counters.
        assert!(json.contains(r#""counters": {"algo.pivots": 7}"#), "{json}");
        assert!(json.contains(r#""cache.hits": 3"#), "{json}");
        assert!(json.contains(r#""cache.misses": 1"#), "{json}");
        assert!(json.contains(r#""cache.canon_ns": 987"#), "{json}");
    }

    #[test]
    fn parallelism_section_is_omitted_when_empty() {
        let mut report = RunReport::new("unit");
        report.counter("algo.steps", 1);
        assert!(!report.to_json().contains("parallelism"));
        assert!(!report.to_json().contains("profile"));
    }

    #[test]
    fn profile_section_segregates_worker_stats() {
        let profile = defender_profile::Profile {
            duration_ns: 100,
            spans: vec![defender_profile::SpanAgg {
                name: "e1.solve".to_string(),
                calls: 4,
                self_ns: 90,
                total_ns: 95,
            }],
            workers: vec![defender_profile::WorkerStat {
                label: "w1".to_string(),
                busy_ns: 50,
                busy_ppm: 500_000,
                stints: 1,
                longest_idle_ns: 0,
            }],
            ..defender_profile::Profile::default()
        };
        let mut report = RunReport::new("unit");
        report.profile_from(&profile);
        let json = report.to_json();
        assert!(
            json.contains(r#""profile": {"prof.calls.e1.solve": 4, "prof.self_ns.e1.solve": 90}"#),
            "{json}"
        );
        assert!(
            json.contains(r#""parallelism": {"prof.worker_busy_ppm.w1": 500000}"#),
            "{json}"
        );
        // Span attribution never leaks into the gated counters object.
        assert!(json.contains(r#""counters": {}"#), "{json}");
    }
}
