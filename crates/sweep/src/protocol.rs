//! Parse side of the shard telemetry protocol.
//!
//! Workers emit NDJSON events through `defender_obs::telemetry` (the emit
//! side owns the wire format; EXPERIMENTS.md documents the schema). The
//! runner reads each worker's stdout line by line and classifies every
//! line here: a line that parses as a JSON object with a string `"ev"`
//! field is an event; anything else is the experiment's ordinary console
//! output, which the runner files into the shard's `console.log`
//! untouched. Unknown event kinds parse as [`ShardEvent::Unknown`] rather
//! than errors, so old runners keep working when workers learn new
//! events.

use defender_obs::json::{self, JsonValue};

/// One decoded telemetry event from a shard worker.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardEvent {
    /// Worker process is alive (`start`).
    Start {
        /// The worker's OS process id.
        pid: u64,
    },
    /// The worker chose its corpus window (`window`).
    Window {
        /// Whole-corpus instance count.
        total: u64,
        /// Window start (inclusive).
        lo: u64,
        /// Window end (exclusive).
        hi: u64,
    },
    /// A named phase finished (`phase`).
    Phase {
        /// Phase name as recorded in the sidecar.
        name: String,
        /// Phase wall time in nanoseconds.
        wall_ns: u64,
    },
    /// Stride-sampled instance progress (`instance`).
    Instance {
        /// Progress label (e.g. `e15.atlas_sweep`).
        label: String,
        /// Instances completed so far.
        done: u64,
        /// Instances in this worker's window.
        total: u64,
        /// Nanoseconds since the label's sweep started.
        elapsed_ns: u64,
    },
    /// Liveness heartbeat (`hb`).
    Heartbeat {
        /// Nanoseconds since the worker's run started.
        elapsed_ns: u64,
    },
    /// Cumulative obs counter totals (`snapshot`).
    Snapshot {
        /// Counter totals as `(name, value)` in emitted (sorted) order.
        counters: Vec<(String, u64)>,
    },
    /// Terminal status (`summary`).
    Summary {
        /// Whether the run finished cleanly.
        ok: bool,
        /// Total run wall time in nanoseconds.
        elapsed_ns: u64,
    },
    /// An event kind this runner does not know (forward compatibility).
    Unknown {
        /// The unrecognized `ev` value.
        kind: String,
    },
}

/// Classifies one line of worker stdout: `Some(event)` when it is a
/// telemetry event, `None` when it is ordinary console output.
#[must_use]
pub fn parse_line(line: &str) -> Option<ShardEvent> {
    let trimmed = line.trim();
    if !trimmed.starts_with('{') {
        return None;
    }
    let doc = json::parse(trimmed).ok()?;
    let kind = doc.get("ev").and_then(JsonValue::as_str)?;
    let u = |key: &str| doc.get(key).and_then(JsonValue::as_u64).unwrap_or(0);
    let event = match kind {
        "start" => ShardEvent::Start { pid: u("pid") },
        "window" => ShardEvent::Window {
            total: u("total"),
            lo: u("lo"),
            hi: u("hi"),
        },
        "phase" => ShardEvent::Phase {
            name: doc
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            wall_ns: u("wall_ns"),
        },
        "instance" => ShardEvent::Instance {
            label: doc
                .get("label")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string(),
            done: u("done"),
            total: u("total"),
            elapsed_ns: u("elapsed_ns"),
        },
        "hb" => ShardEvent::Heartbeat {
            elapsed_ns: u("elapsed_ns"),
        },
        "snapshot" => ShardEvent::Snapshot {
            counters: doc
                .get("counters")
                .and_then(JsonValue::as_object)
                .map(|entries| {
                    entries
                        .iter()
                        .filter_map(|(name, v)| Some((name.clone(), v.as_u64()?)))
                        .collect()
                })
                .unwrap_or_default(),
        },
        "summary" => ShardEvent::Summary {
            ok: doc.get("ok").and_then(JsonValue::as_bool).unwrap_or(false),
            elapsed_ns: u("elapsed_ns"),
        },
        other => ShardEvent::Unknown {
            kind: other.to_string(),
        },
    };
    Some(event)
}

#[cfg(test)]
mod tests {
    use super::*;
    use defender_obs::telemetry::Event;

    #[test]
    fn console_lines_are_not_events() {
        assert_eq!(parse_line("== E1: frontier =="), None);
        assert_eq!(parse_line("| family | n |"), None);
        assert_eq!(parse_line(r#"{"no_ev": 1}"#), None);
        assert_eq!(parse_line("{broken json"), None);
        assert_eq!(parse_line(""), None);
    }

    #[test]
    fn emitted_events_round_trip() {
        let line = Event::new("window")
            .u64("total", 17)
            .u64("lo", 5)
            .u64("hi", 11)
            .to_line();
        assert_eq!(
            parse_line(&line),
            Some(ShardEvent::Window {
                total: 17,
                lo: 5,
                hi: 11
            })
        );
        let line = Event::new("phase")
            .str("name", "atlas_sweep")
            .u64("wall_ns", 9)
            .to_line();
        assert_eq!(
            parse_line(&line),
            Some(ShardEvent::Phase {
                name: "atlas_sweep".to_string(),
                wall_ns: 9
            })
        );
        let line = Event::new("summary")
            .bool("ok", true)
            .u64("elapsed_ns", 3)
            .to_line();
        assert_eq!(
            parse_line(&line),
            Some(ShardEvent::Summary {
                ok: true,
                elapsed_ns: 3
            })
        );
    }

    #[test]
    fn instance_and_heartbeat_round_trip() {
        let line = Event::new("instance")
            .str("label", "e1")
            .u64("done", 4)
            .u64("total", 17)
            .u64("elapsed_ns", 1000)
            .to_line();
        assert_eq!(
            parse_line(&line),
            Some(ShardEvent::Instance {
                label: "e1".to_string(),
                done: 4,
                total: 17,
                elapsed_ns: 1000
            })
        );
        assert_eq!(
            parse_line(r#"{"ev": "hb", "elapsed_ns": 77}"#),
            Some(ShardEvent::Heartbeat { elapsed_ns: 77 })
        );
    }

    #[test]
    fn snapshot_events_decode_counters() {
        let snap = defender_obs::Snapshot {
            counters: vec![("lp.pivots".to_string(), 9), ("se.tests".to_string(), 1)],
            gauges: vec![("par.jobs".to_string(), 2)],
            histograms: Vec::new(),
        };
        let line = defender_obs::telemetry::snapshot_event(&snap).to_line();
        assert_eq!(
            parse_line(&line),
            Some(ShardEvent::Snapshot {
                counters: vec![("lp.pivots".to_string(), 9), ("se.tests".to_string(), 1)],
            })
        );
    }

    #[test]
    fn unknown_kinds_are_tolerated() {
        assert_eq!(
            parse_line(r#"{"ev": "flux_capacitor", "x": 1}"#),
            Some(ShardEvent::Unknown {
                kind: "flux_capacitor".to_string()
            })
        );
    }
}
