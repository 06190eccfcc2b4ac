//! Trace ingestion: one [`TraceInput`] from either a saved Chrome trace
//! document or the live in-process rings.

use defender_obs::trace::EventKind;

/// One event on one lane, decoupled from the obs-internal buffers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LaneEvent {
    /// Nanoseconds since the trace epoch.
    pub ts_ns: u64,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// The span or marker name.
    pub name: String,
}

/// One thread's timeline: its events in recording order plus the lane
/// label (`w<i>` for pool workers, empty for unnamed threads).
#[derive(Clone, Debug, Default)]
pub struct Lane {
    /// The Chrome `tid`.
    pub tid: u64,
    /// The `thread_name` metadata label (empty = unnamed).
    pub label: String,
    /// Events in recording order.
    pub events: Vec<LaneEvent>,
}

/// A complete trace ready for analysis: lanes sorted by tid, plus the
/// drop accounting and (for live harvests) the current clock.
#[derive(Clone, Debug, Default)]
pub struct TraceInput {
    /// Per-thread timelines, sorted by tid.
    pub lanes: Vec<Lane>,
    /// Events lost to ring overflow.
    pub dropped_events: u64,
    /// "Now" in epoch nanoseconds for a live harvest (used to close
    /// still-open spans); `None` for saved traces, where the latest
    /// event timestamp bounds the timeline instead.
    pub end_ns: Option<u64>,
}

impl TraceInput {
    /// Parses a Chrome trace-event JSON document (the object form written
    /// by `defender_obs::trace::chrome_trace_json`).
    ///
    /// Unknown phases are skipped (the profiler consumes `B`/`E`/`i` and
    /// `thread_name` metadata only), so traces from other producers load
    /// as long as the envelope matches.
    ///
    /// # Errors
    ///
    /// Returns a message when the document is not valid JSON, lacks a
    /// `traceEvents` array, or an event is missing `name`/`ph`/`tid`
    /// (or `ts` for timed phases).
    pub fn from_chrome_trace(text: &str) -> Result<TraceInput, String> {
        let doc = defender_obs::json::parse(text)?;
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .ok_or("missing array field `traceEvents`")?;
        let dropped_events = doc
            .get("otherData")
            .and_then(|v| v.get("droppedEvents"))
            .and_then(defender_obs::json::JsonValue::as_u64)
            .unwrap_or(0);
        let mut lanes: std::collections::BTreeMap<u64, Lane> = std::collections::BTreeMap::new();
        for (i, event) in events.iter().enumerate() {
            let name = event
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or(format!("traceEvents[{i}]: missing string field `name`"))?;
            let ph = event
                .get("ph")
                .and_then(|v| v.as_str())
                .ok_or(format!("traceEvents[{i}]: missing string field `ph`"))?;
            let tid = event
                .get("tid")
                .and_then(defender_obs::json::JsonValue::as_u64)
                .ok_or(format!("traceEvents[{i}]: missing integer field `tid`"))?;
            if ph == "M" {
                if name == "thread_name" {
                    if let Some(label) = event.get("args").and_then(|a| a.get("name")) {
                        let lane = lanes.entry(tid).or_default();
                        lane.tid = tid;
                        lane.label = label.as_str().unwrap_or("").to_string();
                    }
                }
                continue;
            }
            let kind = match ph {
                "B" => EventKind::Begin,
                "E" => EventKind::End,
                "i" => EventKind::Instant,
                _ => continue,
            };
            let ts = event
                .get("ts")
                .and_then(defender_obs::json::JsonValue::as_f64)
                .ok_or(format!("traceEvents[{i}]: missing number field `ts`"))?;
            // Chrome's ts unit is microseconds with fractional nanoseconds.
            let ts_ns = (ts * 1_000.0).round().max(0.0) as u64;
            let lane = lanes.entry(tid).or_default();
            lane.tid = tid;
            lane.events.push(LaneEvent {
                ts_ns,
                kind,
                name: name.to_string(),
            });
        }
        Ok(TraceInput {
            lanes: lanes.into_values().collect(),
            dropped_events,
            end_ns: None,
        })
    }

    /// Harvests the live in-process trace rings (non-destructively), for
    /// profiling a run from inside the run — the `--profile` flag of
    /// `exp`.
    ///
    /// Spans still open at harvest time are closed at the current clock
    /// ([`defender_obs::trace::elapsed_ns`]) by the analyzer.
    #[must_use]
    pub fn from_live() -> TraceInput {
        let lanes = defender_obs::trace::snapshot_threads()
            .into_iter()
            .map(|snapshot| Lane {
                tid: snapshot.tid,
                label: snapshot.label,
                events: snapshot
                    .events
                    .into_iter()
                    .map(|e| LaneEvent {
                        ts_ns: e.ts_ns,
                        kind: e.kind,
                        name: e.name.to_string(),
                    })
                    .collect(),
            })
            .collect();
        TraceInput {
            lanes,
            dropped_events: defender_obs::trace::dropped_events(),
            end_ns: Some(defender_obs::trace::elapsed_ns()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests touching the process-global trace rings serialize here
    /// (crate-local is enough: each test binary is its own process).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn parses_lanes_labels_and_drops() {
        let text = r#"{"traceEvents": [
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 7, "args": {"name": "w0"}},
            {"name": "a", "ph": "B", "ts": 1.5, "pid": 1, "tid": 7},
            {"name": "a", "ph": "E", "ts": 2.5, "pid": 1, "tid": 7},
            {"name": "mark", "ph": "i", "ts": 0.25, "pid": 1, "tid": 3, "s": "t"}
        ], "displayTimeUnit": "ns", "otherData": {"droppedEvents": 4}}"#;
        let input = TraceInput::from_chrome_trace(text).unwrap();
        assert_eq!(input.dropped_events, 4);
        assert_eq!(input.end_ns, None);
        assert_eq!(input.lanes.len(), 2);
        assert_eq!(input.lanes[0].tid, 3, "lanes sorted by tid");
        assert_eq!(input.lanes[0].events[0].kind, EventKind::Instant);
        assert_eq!(input.lanes[0].events[0].ts_ns, 250);
        assert_eq!(input.lanes[1].label, "w0");
        assert_eq!(input.lanes[1].events[0].ts_ns, 1_500);
        assert_eq!(input.lanes[1].events[1].name, "a");
    }

    #[test]
    fn rejects_missing_fields() {
        assert!(TraceInput::from_chrome_trace("[]").is_err(), "no envelope");
        let no_ph = r#"{"traceEvents": [{"name": "a", "ts": 1, "tid": 1}]}"#;
        assert!(TraceInput::from_chrome_trace(no_ph).is_err());
        let no_ts = r#"{"traceEvents": [{"name": "a", "ph": "B", "tid": 1}]}"#;
        assert!(TraceInput::from_chrome_trace(no_ts).is_err());
        let no_tid = r#"{"traceEvents": [{"name": "a", "ph": "B", "ts": 1}]}"#;
        assert!(TraceInput::from_chrome_trace(no_tid).is_err());
    }

    #[test]
    fn unknown_phases_are_skipped_not_fatal() {
        let text = r#"{"traceEvents": [
            {"name": "x", "ph": "X", "ts": 1, "dur": 2, "pid": 1, "tid": 1},
            {"name": "a", "ph": "B", "ts": 3, "pid": 1, "tid": 1},
            {"name": "a", "ph": "E", "ts": 4, "pid": 1, "tid": 1}
        ]}"#;
        let input = TraceInput::from_chrome_trace(text).unwrap();
        assert_eq!(input.lanes.len(), 1);
        assert_eq!(input.lanes[0].events.len(), 2, "X phase ignored");
    }

    #[test]
    fn live_harvest_round_trips_the_rings() {
        let _guard = lock();
        defender_obs::trace::clear();
        defender_obs::trace::start();
        {
            let _s = defender_obs::span!("live_outer");
            defender_obs::trace::instant("live_mark");
        }
        let input = TraceInput::from_live();
        defender_obs::trace::stop();
        defender_obs::trace::clear();
        let lane = input
            .lanes
            .iter()
            .find(|l| l.events.iter().any(|e| e.name == "live_outer"))
            .expect("recording lane present");
        let names: Vec<&str> = lane.events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["live_outer", "live_mark", "live_outer"]);
        let end = input.end_ns.expect("live harvests carry the clock");
        assert!(lane.events.iter().all(|e| e.ts_ns <= end));
    }
}
