//! Event-level tracing: bounded per-thread ring buffers of timestamped
//! begin/end/instant events, exported as Chrome trace-event JSON.
//!
//! This module is the one clock behind [`crate::span!`]: the registry in
//! the crate root keeps counters, gauges and value histograms, and span
//! timing lives only here, as a timeline loadable in Perfetto or
//! `chrome://tracing` that `defender-profile` aggregates into per-span
//! self and total times.
//!
//! Design (mirrors the metrics layer):
//!
//! - **off by default**: one relaxed [`AtomicBool`] load per call site
//!   while disabled, just like the metrics gate — and an independent gate,
//!   so `--trace` and `--metrics` compose freely;
//! - **no lost events**: every thread owns its own ring buffer, whose
//!   lock only an exporter copying the ring can contend, so a recording
//!   thread waits at most for one copy and keeps every event — an
//!   in-process reader such as `exp --profile`'s harvest cannot unbalance
//!   the timeline;
//! - **bounded memory**: each ring holds at most [`capacity`] events;
//!   overflow drops the *oldest* event and increments the buffer's drop
//!   counter, so a long run degrades into "the most recent window" rather
//!   than OOM;
//! - **free coverage**: [`crate::span!`] call sites emit begin/end pairs
//!   automatically whenever tracing is enabled, so the `lp` simplex,
//!   `matching` blossom and `core` `A_tuple` timelines need no new code.
//!
//! # Examples
//!
//! ```
//! use defender_obs as obs;
//!
//! obs::trace::start();
//! {
//!     let _outer = obs::span!("demo");
//!     obs::trace::instant("milestone");
//! }
//! let doc = obs::trace::chrome_trace_json();
//! obs::trace::stop();
//! assert!(doc.contains("\"traceEvents\""));
//! assert!(doc.contains("\"ph\": \"B\"") && doc.contains("\"ph\": \"E\""));
//! obs::trace::clear();
//! ```

#![expect(
    clippy::disallowed_types,
    reason = "span timing is the obs layer's purpose; durations never feed counter values"
)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::{JsonArray, JsonObject};

/// Default per-thread ring capacity (events); see [`set_capacity`].
pub const DEFAULT_CAPACITY: usize = 65_536;

static TRACING: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_CAPACITY);
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// The kind of a trace event, mapping 1:1 onto Chrome trace-event phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span was entered (`"ph": "B"`).
    Begin,
    /// A span was exited (`"ph": "E"`).
    End,
    /// A point-in-time marker (`"ph": "i"`).
    Instant,
}

impl EventKind {
    /// The Chrome trace-event `ph` code for this kind.
    #[must_use]
    pub fn phase(self) -> &'static str {
        match self {
            EventKind::Begin => "B",
            EventKind::End => "E",
            EventKind::Instant => "i",
        }
    }
}

/// One recorded event: what happened, where on the timeline, on which
/// thread (the thread id lives on the owning buffer).
#[derive(Clone, Debug)]
pub struct Event {
    /// Nanoseconds since the trace epoch (first [`start`] of the process).
    pub ts_ns: u64,
    /// Begin / end / instant.
    pub kind: EventKind,
    /// The span or marker name (static — recording never allocates for it).
    pub name: &'static str,
}

/// The bounded event ring owned by one thread.
#[derive(Debug, Default)]
struct Ring {
    events: VecDeque<Event>,
    dropped: u64,
}

impl Ring {
    fn push(&mut self, event: Event, capacity: usize) {
        if capacity == 0 {
            self.dropped += 1;
            return;
        }
        while self.events.len() >= capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }
}

/// A registered per-thread buffer: the ring plus its stable thread id.
#[derive(Debug)]
struct ThreadBuffer {
    tid: u64,
    ring: Mutex<Ring>,
    /// Human-readable lane name (empty = unnamed); exported as a Chrome
    /// `thread_name` metadata event and surfaced by [`snapshot_threads`].
    label: Mutex<String>,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadBuffer>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadBuffer>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// The process-wide trace epoch: fixed on first use so timestamps from
/// every thread and every start/stop cycle share one origin.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadBuffer>>> = const { RefCell::new(None) };
}

fn with_local_buffer(f: impl FnOnce(&ThreadBuffer)) {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buffer = slot.get_or_insert_with(|| {
            let buffer = Arc::new(ThreadBuffer {
                tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
                ring: Mutex::new(Ring::default()),
                label: Mutex::new(String::new()),
            });
            registry()
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(Arc::clone(&buffer));
            buffer
        });
        f(buffer);
    });
}

/// Turns event recording on (process-wide). Timestamps are nanoseconds
/// since the first `start` of the process, so repeated start/stop cycles
/// stay on one timeline.
pub fn start() {
    epoch();
    TRACING.store(true, Ordering::Relaxed);
}

/// Turns event recording off; [`crate::span!`] sites fall back to a
/// single relaxed load.
pub fn stop() {
    TRACING.store(false, Ordering::Relaxed);
}

/// Whether event recording is currently on.
#[must_use]
pub fn enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// Sets the per-thread ring capacity, in events. Applies to events
/// recorded from now on (existing rings are trimmed lazily on their next
/// push). Mainly for tests and memory-constrained embeddings.
pub fn set_capacity(events: usize) {
    CAPACITY.store(events, Ordering::Relaxed);
}

/// The current per-thread ring capacity.
#[must_use]
pub fn capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Discards every recorded event, zeroes the drop counters, and forgets
/// thread labels. Buffers stay registered so thread ids remain stable
/// across clears.
pub fn clear() {
    for buffer in registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
    {
        let mut ring = buffer
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        ring.events.clear();
        ring.dropped = 0;
        buffer
            .label
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

fn record(kind: EventKind, name: &'static str) {
    let ts_ns = u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX);
    with_local_buffer(|buffer| {
        // The owning thread is the only writer; an exporter holds the
        // lock only while it copies the ring, so the wait is short.
        buffer
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(Event { ts_ns, kind, name }, capacity());
    });
}

/// Records a span-begin event (called by [`crate::enter_span`]).
pub(crate) fn record_begin(name: &'static str) {
    record(EventKind::Begin, name);
}

/// Records a span-end event. Bypasses the enable gate so a guard that
/// traced its begin always closes its pair, even if [`stop`] ran while
/// the span was live — exporters never see an unbalanced stack.
pub(crate) fn record_end(name: &'static str) {
    record(EventKind::End, name);
}

/// Names the calling thread's trace lane (no-op while tracing is
/// disabled, so untraced runs never register buffers).
///
/// The label is exported as a Chrome `thread_name` metadata event and
/// carried on [`ThreadSnapshot`]s, which is how `defender-profile`
/// attributes lanes to pool workers: `defender-par` labels each worker
/// `w<i>` at spawn, and repeated pool spawns reuse the label even though
/// every scoped thread gets a fresh tid.
pub fn set_thread_label(label: &str) {
    if !enabled() {
        return;
    }
    with_local_buffer(|buffer| {
        let mut slot = buffer
            .label
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.as_str() != label {
            slot.clear();
            slot.push_str(label);
        }
    });
}

/// Nanoseconds elapsed since the trace epoch (the first [`start`] of the
/// process) — the "now" that in-process consumers such as
/// `defender-profile` use to close still-open spans when harvesting a
/// live trace mid-run.
#[must_use]
pub fn elapsed_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records a point-in-time marker (no-op while tracing is disabled).
///
/// ```
/// # use defender_obs as obs;
/// obs::trace::start();
/// obs::trace::instant("lp_degenerate_pivot");
/// obs::trace::stop();
/// # obs::trace::clear();
/// ```
pub fn instant(name: &'static str) {
    if enabled() {
        record(EventKind::Instant, name);
    }
}

/// Total events dropped so far by ring overflow, summed over every
/// thread.
#[must_use]
pub fn dropped_events() -> u64 {
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|b| {
            b.ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .dropped
        })
        .sum()
}

/// Publishes the cumulative drop total into the `trace.dropped_events`
/// obs counter (no-op while the metrics gate is off), so harvested
/// snapshots and `BENCH_*.json` sidecars surface trace truncation
/// alongside the algorithm counters.
///
/// Idempotent: the counter is raised to the current [`dropped_events`]
/// total, so repeated publishes (or publishes after a metrics
/// [`crate::reset`]) never double-count.
pub fn publish_drop_counter() {
    let counter = crate::counter!("trace.dropped_events");
    let total = dropped_events();
    let published = counter.get();
    if total > published {
        counter.add(total - published);
    } else {
        // Register the name even when no drop occurred, so a traced run's
        // sidecar pins the zero and a later drop shows up as growth.
        counter.add(0);
    }
}

/// One thread's buffered events, copied out for in-process analysis.
#[derive(Clone, Debug)]
pub struct ThreadSnapshot {
    /// The stable per-thread id (the Chrome `tid`).
    pub tid: u64,
    /// The lane label from [`set_thread_label`] (empty = unnamed).
    pub label: String,
    /// Buffered events in recording order.
    pub events: Vec<Event>,
    /// Events this thread dropped by ring overflow.
    pub dropped: u64,
}

/// Copies every thread's buffered events out of the rings (threads sorted
/// by tid), for in-process consumers like `defender-profile` that analyze
/// a live trace without a JSON round-trip.
#[must_use]
pub fn snapshot_threads() -> Vec<ThreadSnapshot> {
    let buffers: Vec<Arc<ThreadBuffer>> = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(Arc::clone)
        .collect();
    let mut out: Vec<ThreadSnapshot> = buffers
        .iter()
        .map(|buffer| {
            let ring = buffer
                .ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            ThreadSnapshot {
                tid: buffer.tid,
                label: buffer
                    .label
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone(),
                events: ring.events.iter().cloned().collect(),
                dropped: ring.dropped,
            }
        })
        .collect();
    out.sort_by_key(|s| s.tid);
    out
}

/// Total events currently buffered, summed over every thread.
#[must_use]
pub fn buffered_events() -> u64 {
    registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(|b| {
            b.ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .events
                .len() as u64
        })
        .sum()
}

/// Exports every buffered event as a Chrome trace-event JSON document
/// (the `{"traceEvents": [...]}` object form), loadable in Perfetto or
/// `chrome://tracing`.
///
/// Events are grouped per thread in recording order (Chrome requires
/// per-thread ordering only), threads sorted by id, so identical buffer
/// state renders byte-identical JSON. Drop counts are reported under
/// `"otherData"` so a truncated timeline is visible as such.
#[must_use]
pub fn chrome_trace_json() -> String {
    let buffers: Vec<Arc<ThreadBuffer>> = registry()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
        .map(Arc::clone)
        .collect();
    let mut sorted: Vec<&Arc<ThreadBuffer>> = buffers.iter().collect();
    sorted.sort_by_key(|b| b.tid);
    let mut events = JsonArray::new();
    let mut total_dropped = 0u64;
    for buffer in sorted {
        let ring = buffer
            .ring
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        total_dropped += ring.dropped;
        let label = buffer
            .label
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        if !label.is_empty() {
            // Chrome metadata event: names the lane in Perfetto and
            // carries the worker identity for `defender profile`.
            let mut args = JsonObject::new();
            args.field_str("name", &label);
            let mut obj = JsonObject::new();
            obj.field_str("name", "thread_name");
            obj.field_str("ph", "M");
            obj.field_u64("pid", 1);
            obj.field_u64("tid", buffer.tid);
            obj.field_raw("args", &args.finish());
            events.push_raw(&obj.finish());
        }
        for event in &ring.events {
            let mut obj = JsonObject::new();
            obj.field_str("name", event.name);
            obj.field_str("cat", "span");
            obj.field_str("ph", event.kind.phase());
            // Chrome's ts unit is microseconds; fractional digits keep ns.
            obj.field_f64("ts", event.ts_ns as f64 / 1_000.0);
            obj.field_u64("pid", 1);
            obj.field_u64("tid", buffer.tid);
            if event.kind == EventKind::Instant {
                obj.field_str("s", "t");
            }
            events.push_raw(&obj.finish());
        }
    }
    let mut other = JsonObject::new();
    other.field_u64("droppedEvents", total_dropped);
    other.field_u64("ringCapacityPerThread", capacity() as u64);
    let mut root = JsonObject::new();
    root.field_raw("traceEvents", &events.finish());
    root.field_str("displayTimeUnit", "ns");
    root.field_raw("otherData", &other.finish());
    root.finish()
}

/// Writes [`chrome_trace_json`] to `path` (with a trailing newline).
///
/// # Errors
///
/// Propagates filesystem errors from the write.
pub fn write_chrome_trace(path: &std::path::Path) -> std::io::Result<()> {
    std::fs::write(path, chrome_trace_json() + "\n")
}

/// Structural summary returned by [`validate_chrome_trace`].
#[derive(Clone, Debug)]
pub struct TraceCheck {
    /// Total events in the document.
    pub events: usize,
    /// Deepest begin/end nesting observed on any thread.
    pub max_depth: usize,
    /// Drop count the exporter reported (`otherData.droppedEvents`).
    pub dropped: u64,
    /// Distinct thread ids carrying events — a parallel run (`--jobs N`,
    /// N > 1) shows the main thread plus one lane per worker.
    pub threads: usize,
}

/// Parses and structurally validates a Chrome trace-event JSON document:
/// every event carries `name`/`ph`/`ts`/`tid`, timestamps are
/// non-decreasing per thread, and begin/end events obey stack discipline
/// (each `E` closes the matching `B`; no unclosed spans remain). A
/// document that reported dropped events is excused from pair balance —
/// ring overflow legitimately orphans the oldest begins.
///
/// # Errors
///
/// Returns a message naming the first offending event.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    use crate::json::{self, JsonValue};
    use std::collections::BTreeMap;
    let doc = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .ok_or("missing `traceEvents` array")?;
    let dropped = doc
        .get("otherData")
        .and_then(|o| o.get("droppedEvents"))
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
    let mut max_depth = 0usize;
    for (i, event) in events.iter().enumerate() {
        let field_str = |key: &str| {
            event
                .get(key)
                .and_then(JsonValue::as_str)
                .ok_or(format!("event {i}: missing string `{key}`"))
        };
        let name = field_str("name")?;
        let ph = field_str("ph")?;
        if ph == "M" {
            // Metadata events (thread names) carry no timestamp and no
            // stack semantics; they only need a tid to attach to.
            event
                .get("tid")
                .and_then(JsonValue::as_u64)
                .ok_or(format!("event {i}: missing integer `tid`"))?;
            continue;
        }
        let ts = event
            .get("ts")
            .and_then(JsonValue::as_f64)
            .ok_or(format!("event {i}: missing number `ts`"))?;
        let tid = event
            .get("tid")
            .and_then(JsonValue::as_u64)
            .ok_or(format!("event {i}: missing integer `tid`"))?;
        if ts < 0.0 {
            return Err(format!("event {i}: negative timestamp"));
        }
        let last = last_ts.entry(tid).or_insert(ts);
        if ts < *last {
            return Err(format!("event {i}: timestamps regress on tid {tid}"));
        }
        *last = ts;
        match ph {
            "B" => {
                let stack = stacks.entry(tid).or_default();
                stack.push(name.to_string());
                max_depth = max_depth.max(stack.len());
            }
            "E" => match stacks.entry(tid).or_default().pop() {
                Some(top) if top == name => {}
                Some(top) => {
                    return Err(format!(
                        "event {i}: `E` for `{name}` closes `{top}` on tid {tid}"
                    ));
                }
                None if dropped > 0 => {} // begin fell off the ring
                None => {
                    return Err(format!(
                        "event {i}: `E` for `{name}` with empty stack on tid {tid}"
                    ));
                }
            },
            "i" => {}
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    if dropped == 0 {
        for (tid, stack) in &stacks {
            if let Some(open) = stack.last() {
                return Err(format!("unclosed span `{open}` on tid {tid}"));
            }
        }
    }
    Ok(TraceCheck {
        events: events.len(),
        max_depth,
        dropped,
        threads: last_ts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trace tests mutate process-global state; serialize on the same
    /// mutex as the metrics tests (spans touch both registries).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::test_lock()
    }

    #[test]
    fn disabled_instants_record_nothing() {
        let _guard = lock();
        clear();
        stop();
        instant("ghost");
        assert_eq!(buffered_events(), 0);
        clear();
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let _guard = lock();
        clear();
        set_capacity(4);
        start();
        for _ in 0..10 {
            instant("tick");
        }
        stop();
        assert_eq!(buffered_events(), 4);
        assert_eq!(dropped_events(), 6);
        // The survivors are the newest four: strictly the tail in ts order.
        let doc = chrome_trace_json();
        assert!(doc.contains("\"droppedEvents\": 6"), "{doc}");
        set_capacity(DEFAULT_CAPACITY);
        clear();
    }

    #[test]
    fn span_sites_emit_balanced_pairs() {
        let _guard = lock();
        clear();
        start();
        {
            let _a = crate::span!("outer_t");
            let _b = crate::span!("inner_t");
        }
        stop();
        let doc = chrome_trace_json();
        clear();
        let begins = doc.matches("\"ph\": \"B\"").count();
        let ends = doc.matches("\"ph\": \"E\"").count();
        assert_eq!((begins, ends), (2, 2), "{doc}");
        // Inner closes before outer: B outer, B inner, E inner, E outer.
        let order: Vec<usize> = [
            r#""name": "outer_t", "cat": "span", "ph": "B""#,
            r#""name": "inner_t", "cat": "span", "ph": "B""#,
            r#""name": "inner_t", "cat": "span", "ph": "E""#,
            r#""name": "outer_t", "cat": "span", "ph": "E""#,
        ]
        .iter()
        .map(|needle| doc.find(needle).expect(needle))
        .collect();
        assert!(order.windows(2).all(|w| w[0] < w[1]), "{doc}");
    }

    #[test]
    fn stop_mid_span_still_closes_the_pair() {
        let _guard = lock();
        clear();
        start();
        let guard = crate::span!("straddler");
        stop();
        drop(guard);
        let doc = chrome_trace_json();
        clear();
        assert!(doc.contains(r#""name": "straddler", "cat": "span", "ph": "B""#));
        assert!(doc.contains(r#""name": "straddler", "cat": "span", "ph": "E""#));
    }

    #[test]
    fn exported_traces_validate() {
        let _guard = lock();
        clear();
        start();
        {
            let _a = crate::span!("v_outer");
            let _b = crate::span!("v_inner");
        }
        instant("v_mark");
        stop();
        let doc = chrome_trace_json();
        clear();
        let check = validate_chrome_trace(&doc).expect("exporter output validates");
        assert_eq!(check.events, 5);
        assert!(check.max_depth >= 2);
        assert_eq!(check.dropped, 0);
        assert!(check.threads >= 1);
    }

    #[test]
    fn validator_counts_distinct_threads() {
        let doc = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1, "tid": 1},
            {"name": "w", "ph": "B", "ts": 2, "tid": 2},
            {"name": "w", "ph": "E", "ts": 3, "tid": 2},
            {"name": "w", "ph": "B", "ts": 2, "tid": 3},
            {"name": "w", "ph": "E", "ts": 4, "tid": 3},
            {"name": "a", "ph": "E", "ts": 5, "tid": 1}]}"#;
        let check = validate_chrome_trace(doc).unwrap();
        assert_eq!(check.threads, 3);
    }

    #[test]
    fn validator_rejects_corrupt_documents() {
        assert!(validate_chrome_trace("{").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        let mismatched = r#"{"traceEvents": [
            {"name": "a", "ph": "B", "ts": 1, "tid": 1},
            {"name": "b", "ph": "E", "ts": 2, "tid": 1}]}"#;
        assert!(validate_chrome_trace(mismatched)
            .unwrap_err()
            .contains("closes"));
        let unclosed = r#"{"traceEvents": [{"name": "a", "ph": "B", "ts": 1, "tid": 1}]}"#;
        assert!(validate_chrome_trace(unclosed)
            .unwrap_err()
            .contains("unclosed"));
        let regressing = r#"{"traceEvents": [
            {"name": "a", "ph": "i", "ts": 5, "tid": 1},
            {"name": "b", "ph": "i", "ts": 1, "tid": 1}]}"#;
        assert!(validate_chrome_trace(regressing)
            .unwrap_err()
            .contains("regress"));
    }

    #[test]
    fn thread_labels_export_as_metadata_and_validate() {
        let _guard = lock();
        clear();
        start();
        set_thread_label("w7");
        instant("labeled_tick");
        stop();
        let doc = chrome_trace_json();
        let threads = snapshot_threads();
        clear();
        assert!(doc.contains(r#""name": "thread_name", "ph": "M""#), "{doc}");
        assert!(doc.contains(r#""args": {"name": "w7"}"#), "{doc}");
        let check = validate_chrome_trace(&doc).expect("metadata events validate");
        assert_eq!(check.events, 2, "M event + instant");
        let lane = threads
            .iter()
            .find(|t| t.label == "w7")
            .expect("labeled lane snapshot");
        assert_eq!(lane.events.len(), 1);
        assert_eq!(lane.events[0].name, "labeled_tick");
        assert_eq!(lane.dropped, 0);
    }

    #[test]
    fn labels_are_ignored_while_disabled_and_cleared_by_clear() {
        let _guard = lock();
        clear();
        stop();
        set_thread_label("ghost_lane");
        assert!(
            !chrome_trace_json().contains("ghost_lane"),
            "disabled labels must not register buffers"
        );
        start();
        set_thread_label("real_lane");
        stop();
        assert!(chrome_trace_json().contains("real_lane"));
        clear();
        assert!(!chrome_trace_json().contains("real_lane"));
    }

    #[test]
    fn snapshot_threads_carries_events_in_order() {
        let _guard = lock();
        clear();
        start();
        {
            let _a = crate::span!("snap_outer");
            instant("snap_mark");
        }
        stop();
        let threads = snapshot_threads();
        clear();
        let lane = threads
            .iter()
            .find(|t| t.events.iter().any(|e| e.name == "snap_outer"))
            .expect("recording lane present");
        let names: Vec<&str> = lane.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["snap_outer", "snap_mark", "snap_outer"]);
        assert_eq!(lane.events[0].kind, EventKind::Begin);
        assert_eq!(lane.events[2].kind, EventKind::End);
        assert!(lane.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn publish_drop_counter_is_idempotent() {
        let _guard = lock();
        clear();
        crate::reset();
        crate::enable();
        set_capacity(2);
        start();
        for _ in 0..5 {
            instant("drop_me");
        }
        stop();
        let published = || crate::snapshot().counter("trace.dropped_events");
        publish_drop_counter();
        assert_eq!(published(), Some(3));
        publish_drop_counter();
        assert_eq!(published(), Some(3), "republishing must not double-count");
        // After a metrics reset the counter self-heals to the ring total.
        crate::reset();
        crate::enable();
        publish_drop_counter();
        assert_eq!(published(), Some(3));
        set_capacity(DEFAULT_CAPACITY);
        crate::disable();
        crate::reset();
        clear();
    }

    #[test]
    fn elapsed_ns_is_monotonic() {
        let a = elapsed_ns();
        let b = elapsed_ns();
        assert!(b >= a);
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let _guard = lock();
        clear();
        start();
        for _ in 0..50 {
            instant("t");
        }
        stop();
        let all: Vec<u64> = registry()
            .lock()
            .unwrap()
            .iter()
            .flat_map(|b| {
                b.ring
                    .lock()
                    .unwrap()
                    .events
                    .iter()
                    .map(|e| e.ts_ns)
                    .collect::<Vec<_>>()
            })
            .collect();
        clear();
        assert!(all.windows(2).all(|w| w[0] <= w[1]));
    }
}
