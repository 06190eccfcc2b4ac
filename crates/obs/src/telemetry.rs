//! Cross-process shard telemetry: NDJSON events on stdout.
//!
//! A sweep worker (`exp <name>` invoked with `--telemetry` by the
//! `defender sweep` runner) streams one JSON object per line to stdout;
//! the parent process demultiplexes the stream — lines that parse as a
//! JSON object with an `"ev"` field are telemetry, everything else is the
//! experiment's ordinary console output. The emit side lives here so the
//! whole workspace shares one wire format; the parse side lives in
//! `defender-sweep` (`protocol` module), and the event schema is
//! documented in EXPERIMENTS.md ("Shard telemetry protocol"). Events do
//! not name their shard: the runner reads each worker from its own pipe.
//!
//! Event kinds emitted by the workspace:
//!
//! | `ev`        | emitted by                              | meaning |
//! |-------------|------------------------------------------|---------|
//! | `start`     | `experiment_main` before the run         | worker alive, pid |
//! | `window`    | `defender_bench::shard::window`          | corpus partition chosen |
//! | `phase`     | `RunReport::phase`                       | a named phase finished |
//! | `instance`  | `defender_profile::Progress::tick`       | instances completed (stride-sampled) |
//! | `hb`        | the `experiment_main` timer thread       | liveness heartbeat |
//! | `snapshot`  | the `experiment_main` timer thread       | cumulative counter totals |
//! | `summary`   | `experiment_main` after the run          | terminal status |
//!
//! Like the metrics and trace layers, telemetry is **off by default**
//! behind one relaxed atomic gate, so instrumented call sites cost a
//! branch when no sweep runner is listening.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};

use crate::json::JsonObject;
use crate::Snapshot;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns telemetry emission on (process-wide).
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turns telemetry emission off.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// Whether telemetry emission is currently on.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Builder for one telemetry event line.
///
/// Field order on the wire is `ev`, then the fields in call order —
/// readers must key on names, not positions, but the stable order keeps
/// the stream grep-friendly.
#[derive(Debug)]
pub struct Event {
    obj: JsonObject,
}

impl Event {
    /// Starts an event of the given kind (the `ev` field).
    #[must_use]
    pub fn new(kind: &str) -> Event {
        let mut obj = JsonObject::new();
        obj.field_str("ev", kind);
        Event { obj }
    }

    /// Adds an unsigned integer field.
    #[must_use]
    pub fn u64(mut self, key: &str, value: u64) -> Event {
        self.obj.field_u64(key, value);
        self
    }

    /// Adds a string field.
    #[must_use]
    pub fn str(mut self, key: &str, value: &str) -> Event {
        self.obj.field_str(key, value);
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn bool(mut self, key: &str, value: bool) -> Event {
        self.obj.field_bool(key, value);
        self
    }

    /// Adds a pre-serialized JSON value field.
    #[must_use]
    pub fn raw(mut self, key: &str, value: &str) -> Event {
        self.obj.field_raw(key, value);
        self
    }

    /// The event as one NDJSON line (no trailing newline).
    #[must_use]
    pub fn to_line(&self) -> String {
        self.obj.finish()
    }

    /// Writes the event to stdout (one line, flushed) when telemetry is
    /// on; drops it otherwise. Flushing per line keeps the parent's view
    /// live even when stdout is a pipe (block-buffered by default).
    pub fn emit(self) {
        if !enabled() {
            return;
        }
        let mut line = self.to_line();
        line.push('\n');
        let stdout = std::io::stdout();
        let mut handle = stdout.lock();
        let _ = handle.write_all(line.as_bytes());
        let _ = handle.flush();
    }
}

/// Serializes the cumulative counter totals of `snapshot` as a
/// `snapshot` event: `counters` is a name→value object, the one section
/// the sweep runner reads (its dashboard footer). Gauges and histograms
/// travel in the end-of-run sidecar, not on every beat.
#[must_use]
pub fn snapshot_event(snapshot: &Snapshot) -> Event {
    let mut counters = JsonObject::new();
    for (name, value) in &snapshot.counters {
        counters.field_u64(name, *value);
    }
    Event::new("snapshot").raw("counters", &counters.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HistStat;

    #[test]
    fn events_serialize_with_ev_first() {
        let line = Event::new("hb").u64("elapsed_ns", 12).to_line();
        assert!(line.starts_with(r#"{"ev": "hb""#), "{line}");
        assert!(line.contains(r#""elapsed_ns": 12"#));
    }

    #[test]
    fn disabled_events_do_not_claim_enabled() {
        let _guard = crate::test_lock();
        disable();
        assert!(!enabled());
        // emit() on a disabled gate is a no-op; nothing to assert beyond
        // not panicking (stdout is not captured here).
        Event::new("hb").emit();
    }

    #[test]
    fn snapshot_event_carries_cumulative_state() {
        let snap = Snapshot {
            counters: vec![("lp.pivots".to_string(), 42), ("se.tests".to_string(), 3)],
            gauges: vec![("par.jobs".to_string(), 4)],
            histograms: vec![HistStat {
                name: "lp.simplex.constraints".to_string(),
                count: 3,
                sum: 30,
                buckets: vec![(3, 3)],
            }],
        };
        assert_eq!(
            snapshot_event(&snap).to_line(),
            r#"{"ev": "snapshot", "counters": {"lp.pivots": 42, "se.tests": 3}}"#
        );
    }
}
