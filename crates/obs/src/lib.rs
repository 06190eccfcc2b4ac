//! `defender-obs` — zero-dependency instrumentation for the workspace.
//!
//! The ROADMAP's north star is a system whose hot paths get *measurably*
//! faster PR over PR; this crate is the measuring stick. It provides:
//!
//! - **monotonic counters** ([`counter!`]) and **gauges** ([`gauge!`]) as
//!   lock-free static handles registered on first touch;
//! - **value histograms** with fixed log2 buckets ([`histogram!`]);
//! - **spans** ([`span!`]): RAII guards that write begin/end events into
//!   the [`trace`] ring buffers while event tracing is on — the one span
//!   clock; `defender-profile` turns those events into call counts, self
//!   and total times and a per-path flamegraph, and the registry keeps
//!   no span statistics;
//! - **event-level tracing** ([`trace`]): bounded per-thread ring buffers
//!   of begin/end/instant events, exported as Chrome trace-event JSON for
//!   Perfetto timelines;
//! - two exporters over a consistent [`Snapshot`]: a human-readable table
//!   ([`Snapshot::to_table`]) and a hand-rolled, stable, machine-diffable
//!   JSON document ([`Snapshot::to_json`]; no serde — the build
//!   environment has no crates.io access, so the whole crate is std-only);
//! - a global **enable gate**: instrumentation is *off* by default and
//!   every handle checks one relaxed atomic load before doing any work,
//!   so disabled overhead is a branch per call site (spans answer to the
//!   tracing gate alone);
//! - **counting scopes** ([`captured`]): a region whose counter ticks,
//!   its pool workers' included, are collected and handed back to the
//!   caller instead of landing in the global cells, whatever the gate.
//!
//! Span-naming convention (see DESIGN.md §Observability): one span per
//! paper-algorithm step, nested under the algorithm's own span — e.g.
//! `a_tuple/step1_matching_ne`, `a_tuple/step3_cyclic_tuples`. Counter
//! names are dotted `crate.component.event` paths, e.g.
//! `lp.simplex.pivots`, `matching.blossom.augmentations`.
//!
//! # Examples
//!
//! ```
//! use defender_obs as obs;
//!
//! obs::enable();
//! {
//!     let _outer = obs::span!("demo");
//!     obs::counter!("demo.events").add(3);
//!     obs::histogram!("demo.sizes").record(12);
//! }
//! let snap = obs::snapshot();
//! assert_eq!(snap.counter("demo.events"), Some(3));
//! assert!(snap.to_json().contains("\"name\": \"demo.sizes\""));
//! obs::disable();
//! obs::reset();
//! ```

#![warn(missing_docs, missing_debug_implementations)]
// Workspace invariants (DESIGN.md §12): determinism, panic.
#![warn(
    clippy::disallowed_types,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod json;
pub mod trace;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Number of log2 buckets in every histogram: bucket `i` counts values
/// `v` with `floor(log2(max(v, 1))) == i`, i.e. `v` in `[2^i, 2^(i+1))`.
pub const BUCKETS: usize = 64;

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

/// The one word every counter tick reads first. Bit 0 is the [`enable`]
/// flag; the bits above it count the [`captured`] scopes live on any
/// thread. Zero — instrumentation off and no scope anywhere — is the
/// common production state, and a tick that reads it returns at once.
/// `Relaxed` suffices: the word publishes no other data, and a thread
/// only relies on the scopes it entered itself, whose increments it
/// always sees.
static GATE: AtomicUsize = AtomicUsize::new(0);
const ENABLED_BIT: usize = 1;
const SCOPE_UNIT: usize = 2;

/// Turns instrumentation on (process-wide).
pub fn enable() {
    GATE.fetch_or(ENABLED_BIT, Ordering::Relaxed);
}

/// Turns instrumentation off; handles become branch-and-return stubs.
/// Counting scopes ([`captured`]) keep counting.
pub fn disable() {
    GATE.fetch_and(!ENABLED_BIT, Ordering::Relaxed);
}

/// Whether instrumentation is currently on.
#[must_use]
pub fn enabled() -> bool {
    GATE.load(Ordering::Relaxed) & ENABLED_BIT != 0
}

// ---------------------------------------------------------------------------
// Counting scopes
// ---------------------------------------------------------------------------

/// The counter ticks of one live scope, keyed by metric name.
type Ticks = BTreeMap<&'static str, u64>;

thread_local! {
    /// The innermost counting scope live on this thread, if any.
    static SCOPE: RefCell<Option<Ticks>> = const { RefCell::new(None) };
}

/// Whether this thread runs inside a [`captured`] scope. `defender-par`
/// asks before it fans out, so that its workers count into the caller's
/// scope. With no scope live anywhere the thread-local is never touched.
#[must_use]
pub fn in_scope() -> bool {
    GATE.load(Ordering::Relaxed) >= SCOPE_UNIT && SCOPE.with(|s| s.borrow().is_some())
}

/// One entered scope. Dropping it — on return or while unwinding —
/// reinstates the enclosing scope.
struct Scope {
    outer: Option<Ticks>,
}

impl Drop for Scope {
    fn drop(&mut self) {
        SCOPE.with(|s| *s.borrow_mut() = self.outer.take());
        GATE.fetch_sub(SCOPE_UNIT, Ordering::Relaxed);
    }
}

/// Runs `f` as a **counting scope**: the counter ticks made while it runs
/// are collected instead of reaching the global cells, and come back with
/// `f`'s result as name-sorted `(name, delta)` pairs.
///
/// - A scope counts whether or not [`enable`] ran.
/// - `defender-par` workers started inside a scope count into it, so the
///   deltas are the same at every pool width; execution-shape counters
///   tick through [`Metric::add_unscoped`] and stay out.
/// - Scopes nest: an inner scope sees only its own ticks, which reach the
///   outer scope only if replayed ([`replay_counters`]).
/// - Gauge and histogram writes inside a scope are dropped: they are not
///   replayable sums.
///
/// `defender-cache` solves each class in a scope and replays the stored
/// deltas on every lookup; dropping the deltas discards bookkeeping that
/// must not count; tests measure their own work immune to sibling tests.
pub fn captured<T>(f: impl FnOnce() -> T) -> (T, Vec<(String, u64)>) {
    GATE.fetch_add(SCOPE_UNIT, Ordering::Relaxed);
    let scope = Scope {
        outer: SCOPE.with(|s| s.replace(Some(Ticks::new()))),
    };
    let result = f();
    let ticks = SCOPE.with(|s| s.borrow_mut().take()).unwrap_or_default();
    drop(scope);
    let deltas = ticks
        .into_iter()
        .map(|(name, delta)| (name.to_owned(), delta))
        .collect();
    (result, deltas)
}

/// A counter handle resolved from a runtime name, memoized process-wide
/// so each distinct name leaks exactly one cell. The replay half of
/// [`captured`]; prefer [`counter!`] for compile-time names.
#[must_use]
pub fn counter_by_name(name: &str) -> &'static Metric {
    static BY_NAME: OnceLock<Mutex<BTreeMap<String, &'static Metric>>> = OnceLock::new();
    let map = BY_NAME.get_or_init(|| Mutex::new(BTreeMap::new()));
    let mut map = map
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(metric) = map.get(name) {
        metric
    } else {
        let metric = leaked_counter(name.to_string());
        map.insert(name.to_string(), metric);
        metric
    }
}

/// Adds each `(name, delta)` pair to the matching counter — the replay
/// half of a [`captured`] scope. Inside another scope the deltas land in
/// that scope.
pub fn replay_counters(deltas: &[(String, u64)]) {
    if GATE.load(Ordering::Relaxed) == 0 {
        return;
    }
    for (name, delta) in deltas {
        counter_by_name(name).add(*delta);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// What kind of scalar a [`Metric`] handle holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
}

/// A static counter/gauge cell; create via [`counter!`] or [`gauge!`].
#[derive(Debug)]
pub struct Metric {
    name: &'static str,
    kind: Kind,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Metric {
    #[doc(hidden)]
    #[must_use]
    pub const fn new_counter(name: &'static str) -> Metric {
        Metric {
            name,
            kind: Kind::Counter,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    #[doc(hidden)]
    #[must_use]
    pub const fn new_gauge(name: &'static str) -> Metric {
        Metric {
            name,
            kind: Kind::Gauge,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry()
                .metrics
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(self);
        }
    }

    /// Adds `n` (counters; no-op while disabled). Inside a [`captured`]
    /// scope the tick goes to the scope instead, even while disabled.
    pub fn add(&'static self, n: u64) {
        let gate = GATE.load(Ordering::Relaxed);
        if gate >= SCOPE_UNIT {
            let scoped = SCOPE.with(|s| match s.borrow_mut().as_mut() {
                Some(ticks) => {
                    if self.kind == Kind::Counter {
                        *ticks.entry(self.name).or_insert(0) += n;
                    }
                    true
                }
                None => false,
            });
            if scoped {
                return;
            }
        }
        if gate & ENABLED_BIT != 0 {
            self.ensure_registered();
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds `n` to the global cell even inside a [`captured`] scope
    /// (no-op while disabled). For execution-shape counters, such as
    /// `defender-par`'s per-worker task counts: they vary with the pool
    /// width, so no scope may collect them.
    pub fn add_unscoped(&'static self, n: u64) {
        if enabled() {
            self.ensure_registered();
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1 (counters; no-op while disabled).
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Overwrites the value (gauges; no-op while disabled or inside a
    /// [`captured`] scope).
    pub fn set(&'static self, v: u64) {
        if enabled() && !in_scope() {
            self.ensure_registered();
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Raises the gauge to `v` if it is below it (no-op while disabled or
    /// inside a [`captured`] scope).
    pub fn set_max(&'static self, v: u64) {
        if enabled() && !in_scope() {
            self.ensure_registered();
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The current value (reads work even while disabled).
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The name this cell was declared or resolved under.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Creates a counter whose name is only known at runtime (e.g. one cell
/// per pool worker), leaking both the name and the cell so the handle
/// satisfies the registry's `'static` contract.
///
/// Intended for small, bounded families of names (worker indices) — each
/// distinct name leaks once for the life of the process, so
/// callers should cache the returned handle. Prefer [`counter!`] whenever
/// the name is a compile-time constant.
#[must_use]
pub fn leaked_counter(name: String) -> &'static Metric {
    Box::leak(Box::new(Metric::new_counter(name.leak())))
}

/// A static log2-bucket value histogram; create via [`histogram!`].
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    registered: AtomicBool,
}

/// Index of the log2 bucket for `v`: 0 for 0 and 1, else `floor(log2 v)`.
#[must_use]
pub fn bucket_index(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// The value range `[lo, hi)` covered by log2 bucket `i`: bucket 0 holds
/// 0 and 1, bucket `i > 0` holds `[2^i, 2^(i+1))`.
#[must_use]
pub fn bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        (0.0, 2.0)
    } else {
        ((1u64 << i) as f64, (1u64 << i) as f64 * 2.0)
    }
}

impl Histogram {
    #[doc(hidden)]
    #[must_use]
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    fn ensure_registered(&'static self) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry()
                .histograms
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(self);
        }
    }

    /// Records one value (no-op while disabled or inside a [`captured`]
    /// scope).
    pub fn record(&'static self, v: u64) {
        if enabled() && !in_scope() {
            self.ensure_registered();
            self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            self.count.fetch_add(1, Ordering::Relaxed);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
    }
}

/// Aggregated statistics of one named value histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistStat {
    /// Histogram name.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty log2 buckets as `(bucket_index, count)`.
    pub buckets: Vec<(usize, u64)>,
}

impl HistStat {
    /// Mean recorded value (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the log2 buckets
    /// by linear interpolation inside the bucket holding the target rank.
    ///
    /// Log2 buckets bound the relative error of the estimate by 2x, which
    /// is exactly the resolution the regression gate cares about. Degenerate
    /// histograms short-circuit: an empty one reports 0, a single sample
    /// reports its exact value (`sum`), and a single-bucket one reports the
    /// mean clamped to the bucket — the buckets carry no spread information
    /// in those cases, so rank interpolation would fabricate p50 < p99.
    #[must_use]
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count == 1 {
            return self.sum as f64;
        }
        if let [(i, _)] = self.buckets[..] {
            let (lo, hi) = bucket_bounds(i);
            return self.mean().clamp(lo, hi);
        }
        let rank = q.clamp(0.0, 1.0) * (self.count as f64 - 1.0);
        let mut seen = 0u64;
        for &(i, c) in &self.buckets {
            let hi_rank = (seen + c) as f64;
            if rank < hi_rank || (seen + c) == self.count {
                let (lo, hi) = bucket_bounds(i);
                let frac = if c == 0 {
                    0.5
                } else {
                    ((rank - seen as f64 + 0.5) / c as f64).clamp(0.0, 1.0)
                };
                return lo + (hi - lo) * frac;
            }
            seen += c;
        }
        0.0
    }

    /// Median estimate — see [`HistStat::percentile`].
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 90th-percentile estimate — see [`HistStat::percentile`].
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.percentile(0.90)
    }

    /// 99th-percentile estimate — see [`HistStat::percentile`].
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

#[derive(Default)]
struct Registry {
    metrics: Mutex<Vec<&'static Metric>>,
    histograms: Mutex<Vec<&'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Zeroes every registered counter, gauge and histogram.
///
/// Handles stay registered, so a reset between runs keeps stable output
/// ordering. Typically called right after [`enable`] at the start of a
/// measured run.
pub fn reset() {
    let reg = registry();
    for m in reg
        .metrics
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
    {
        m.value.store(0, Ordering::Relaxed);
    }
    for h in reg
        .histograms
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
    {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// RAII guard returned by [`span!`]: emits a begin event to the
/// [`trace`] ring buffers on entry and the matching end event when
/// dropped, while event tracing is on. The metrics gate plays no part:
/// with tracing off the guard is inert (no clock read, no allocation),
/// and the registry never sees a span.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; bind it to a named guard"]
pub struct SpanGuard {
    name: &'static str,
    traced: bool,
}

/// Enters a span named `name`; prefer the [`span!`] macro.
pub fn enter_span(name: &'static str) -> SpanGuard {
    let traced = trace::enabled();
    if traced {
        trace::record_begin(name);
    }
    SpanGuard { name, traced }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.traced {
            // Unconditional: a traced begin always gets its end, even if
            // `trace::stop()` ran while the span was live, so exported
            // timelines never contain an unbalanced stack.
            trace::record_end(self.name);
        }
    }
}

/// Opens a span over the enclosing scope: a begin/end event pair on the
/// calling thread's trace lane while event tracing is on.
///
/// ```
/// # use defender_obs as obs;
/// obs::trace::start();
/// let _span = obs::span!("my_phase");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::enter_span($name)
    };
}

/// Declares (once per call site) and returns a static monotonic counter.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static METRIC: $crate::Metric = $crate::Metric::new_counter($name);
        &METRIC
    }};
}

/// Declares (once per call site) and returns a static gauge.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static METRIC: $crate::Metric = $crate::Metric::new_gauge($name);
        &METRIC
    }};
}

/// Declares (once per call site) and returns a static log2 histogram.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HISTOGRAM: $crate::Histogram = $crate::Histogram::new($name);
        &HISTOGRAM
    }};
}

// ---------------------------------------------------------------------------
// Snapshot + exporters
// ---------------------------------------------------------------------------

/// A point-in-time copy of the whole registry, ready for export.
///
/// Counters and gauges are aggregated by name (two call sites sharing a
/// name sum), and all sections are sorted by name so repeated exports of
/// identical state are byte-identical — the property the `BENCH_*.json`
/// trajectory diffs rely on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotonic counters as `(name, value)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges as `(name, value)`, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Named value histograms, sorted by name.
    pub histograms: Vec<HistStat>,
}

/// Captures the current registry contents.
#[must_use]
pub fn snapshot() -> Snapshot {
    let reg = registry();
    let mut counters: BTreeMap<String, u64> = BTreeMap::new();
    let mut gauges: BTreeMap<String, u64> = BTreeMap::new();
    for m in reg
        .metrics
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
    {
        let slot = match m.kind {
            Kind::Counter => counters.entry(m.name.to_string()).or_insert(0),
            Kind::Gauge => gauges.entry(m.name.to_string()).or_insert(0),
        };
        *slot += m.get();
    }
    let mut histograms: BTreeMap<String, HistStat> = BTreeMap::new();
    for h in reg
        .histograms
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .iter()
    {
        let stat = histograms
            .entry(h.name.to_string())
            .or_insert_with(|| HistStat {
                name: h.name.to_string(),
                count: 0,
                sum: 0,
                buckets: Vec::new(),
            });
        stat.count += h.count.load(Ordering::Relaxed);
        stat.sum += h.sum.load(Ordering::Relaxed);
        let mut merged: BTreeMap<usize, u64> = stat.buckets.iter().copied().collect();
        for (i, b) in h.buckets.iter().enumerate() {
            let v = b.load(Ordering::Relaxed);
            if v > 0 {
                *merged.entry(i).or_insert(0) += v;
            }
        }
        stat.buckets = merged.into_iter().collect();
    }
    Snapshot {
        counters: counters.into_iter().collect(),
        gauges: gauges.into_iter().collect(),
        histograms: histograms.into_values().collect(),
    }
}

impl Snapshot {
    /// The value of counter `name`, if it was ever touched.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The value of gauge `name`, if it was ever touched.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot as a human-readable table.
    #[must_use]
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("(no metrics recorded — is instrumentation enabled?)\n");
            return out;
        }
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(0);
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<width$}  {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<width$}  count={} sum={} mean={:.1} p50={:.1} p90={:.1} p99={:.1}",
                    h.name,
                    h.count,
                    h.sum,
                    h.mean(),
                    h.p50(),
                    h.p90(),
                    h.p99()
                );
            }
        }
        out
    }

    /// Renders the snapshot as a stable JSON document (sorted keys, no
    /// trailing whitespace) suitable for machine diffing across runs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut root = json::JsonObject::new();
        let mut counters = json::JsonObject::new();
        for (name, value) in &self.counters {
            counters.field_u64(name, *value);
        }
        root.field_raw("counters", &counters.finish());
        let mut gauges = json::JsonObject::new();
        for (name, value) in &self.gauges {
            gauges.field_u64(name, *value);
        }
        root.field_raw("gauges", &gauges.finish());
        let mut histograms = json::JsonArray::new();
        for h in &self.histograms {
            let mut obj = json::JsonObject::new();
            obj.field_str("name", &h.name);
            obj.field_u64("count", h.count);
            obj.field_u64("sum", h.sum);
            obj.field_f64("p50", h.p50());
            obj.field_f64("p90", h.p90());
            obj.field_f64("p99", h.p99());
            let mut buckets = json::JsonArray::new();
            for &(i, c) in &h.buckets {
                let mut b = json::JsonObject::new();
                b.field_u64("log2", i as u64);
                b.field_u64("count", c);
                buckets.push_raw(&b.finish());
            }
            obj.field_raw("buckets", &buckets.finish());
            histograms.push_raw(&obj.finish());
        }
        root.field_raw("histograms", &histograms.finish());
        root.finish()
    }
}

/// Obs tests mutate process-global state (the gates + registries), so the
/// lib and trace test modules serialize on one shared mutex to stay
/// independent of `--test-threads`.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        test_lock()
    }

    #[test]
    fn bucket_index_is_floor_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(7), 2);
        assert_eq!(bucket_index(8), 3);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every power of two starts its own bucket.
        for i in 0..63 {
            assert_eq!(bucket_index(1u64 << i), usize::from(i > 0) * i);
            assert_eq!(bucket_index((1u64 << i) + 1), if i == 0 { 1 } else { i });
        }
    }

    #[test]
    fn counters_disabled_by_default_then_count() {
        let _guard = lock();
        reset();
        disable();
        let c = counter!("test.gated");
        c.incr();
        assert_eq!(c.get(), 0, "disabled increments are dropped");
        enable();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        disable();
        reset();
    }

    #[test]
    fn captured_diverts_counters_and_replays() {
        let _guard = lock();
        reset();
        enable();
        let c = counter!("test.capture.cell");
        c.add(2);
        let (out, deltas) = captured(|| {
            c.add(5);
            counter!("test.capture.other").incr();
            gauge!("test.capture.gauge").set(9);
            histogram!("test.capture.hist").record(4);
            "done"
        });
        assert_eq!(out, "done");
        assert_eq!(
            deltas,
            vec![
                ("test.capture.cell".to_string(), 5),
                ("test.capture.other".to_string(), 1),
            ]
        );
        assert_eq!(c.get(), 2, "captured increments stay out of the cell");
        let snap = snapshot();
        assert_eq!(snap.gauge("test.capture.gauge"), None, "gauges dropped");
        assert!(
            !snap
                .histograms
                .iter()
                .any(|h| h.name == "test.capture.hist" && h.count > 0),
            "histograms dropped"
        );
        replay_counters(&deltas);
        let snap = snapshot();
        assert_eq!(
            snap.counter("test.capture.cell"),
            Some(7),
            "replay lands under the same name (snapshot sums cells by name)"
        );
        assert_eq!(snap.counter("test.capture.other"), Some(1));
        disable();
        reset();
    }

    #[test]
    fn captured_regions_nest_without_leaking() {
        let _guard = lock();
        reset();
        enable();
        let c = counter!("test.capture.nested");
        let (_, outer) = captured(|| {
            c.add(1);
            let ((), inner) = captured(|| c.add(10));
            assert_eq!(inner, vec![("test.capture.nested".to_string(), 10)]);
            c.add(2);
        });
        assert_eq!(outer, vec![("test.capture.nested".to_string(), 3)]);
        assert_eq!(c.get(), 0);
        disable();
        reset();
    }

    #[test]
    fn captured_counts_whatever_the_gate() {
        let _guard = lock();
        reset();
        disable();
        let c = counter!("test.scope.gated");
        let ((), deltas) = captured(|| c.add(4));
        assert_eq!(deltas, vec![("test.scope.gated".to_string(), 4)]);
        assert_eq!(c.get(), 0, "a scope never reaches the global cell");
        replay_counters(&deltas);
        assert_eq!(c.get(), 0, "replay outside a scope obeys the gate");
        let ((), outer) = captured(|| replay_counters(&deltas));
        assert_eq!(outer, deltas, "replay inside a scope lands in it");
        assert!(!in_scope(), "the scope ends with its closure");
        reset();
    }

    #[test]
    fn add_unscoped_bypasses_the_scope() {
        let _guard = lock();
        reset();
        enable();
        let shape = counter!("test.scope.shape");
        let ((), deltas) = captured(|| {
            assert!(in_scope());
            shape.add_unscoped(3);
        });
        assert!(deltas.is_empty(), "{deltas:?}");
        assert_eq!(shape.get(), 3);
        disable();
        reset();
    }

    #[test]
    fn a_panicking_scope_restores_the_enclosing_one() {
        let _guard = lock();
        reset();
        let c = counter!("test.scope.unwind");
        let ((), outer) = captured(|| {
            c.add(1);
            let result = std::panic::catch_unwind(|| {
                captured(|| {
                    c.add(100);
                    panic!("inside the inner scope");
                })
            });
            assert!(result.is_err());
            c.add(2);
        });
        assert_eq!(outer, vec![("test.scope.unwind".to_string(), 3)]);
        assert!(!in_scope());
        reset();
    }

    #[test]
    fn counter_by_name_memoizes_one_cell_per_name() {
        let _guard = lock();
        reset();
        enable();
        let a = counter_by_name("test.byname.cell");
        let b = counter_by_name("test.byname.cell");
        assert!(std::ptr::eq(a, b), "same name resolves to the same cell");
        a.add(3);
        b.add(4);
        assert_eq!(snapshot().counter("test.byname.cell"), Some(7));
        disable();
        reset();
    }

    #[test]
    fn gauges_set_and_max() {
        let _guard = lock();
        reset();
        enable();
        let g = gauge!("test.gauge");
        g.set(7);
        g.set_max(3);
        assert_eq!(g.get(), 7);
        g.set_max(11);
        assert_eq!(g.get(), 11);
        assert_eq!(snapshot().gauge("test.gauge"), Some(11));
        disable();
        reset();
    }

    #[test]
    fn histogram_buckets_values() {
        let _guard = lock();
        reset();
        enable();
        let h = histogram!("test.hist");
        for v in [1u64, 2, 3, 900, 1000] {
            h.record(v);
        }
        let snap = snapshot();
        let stat = snap
            .histograms
            .iter()
            .find(|s| s.name == "test.hist")
            .unwrap();
        assert_eq!(stat.count, 5);
        assert_eq!(stat.sum, 1906);
        assert_eq!(stat.buckets, vec![(0, 1), (1, 2), (9, 2)]);
        disable();
        reset();
    }

    #[test]
    fn bucket_bounds_cover_the_line() {
        assert_eq!(bucket_bounds(0), (0.0, 2.0));
        assert_eq!(bucket_bounds(1), (2.0, 4.0));
        assert_eq!(bucket_bounds(10), (1024.0, 2048.0));
        for i in 0..63 {
            let (lo, hi) = bucket_bounds(i);
            assert!(lo < hi);
            assert_eq!(bucket_bounds(i + 1).0, hi, "contiguous at {i}");
        }
    }

    #[test]
    fn percentiles_estimate_from_buckets() {
        let empty = HistStat {
            name: "empty".into(),
            count: 0,
            sum: 0,
            buckets: Vec::new(),
        };
        assert_eq!(empty.p50(), 0.0);
        assert_eq!(empty.p99(), 0.0);
        // 100 values in bucket 4 ([16, 32)) summing to 2000: one bucket
        // carries no spread, so every percentile is the mean.
        let uniform = HistStat {
            name: "u".into(),
            count: 100,
            sum: 2000,
            buckets: vec![(4, 100)],
        };
        for p in [uniform.p50(), uniform.p90(), uniform.p99()] {
            assert_eq!(p, 20.0, "single-bucket percentiles collapse to mean");
        }
        // 90 tiny values and 10 huge ones: p50 is tiny, p99 is huge.
        let skewed = HistStat {
            name: "s".into(),
            count: 100,
            sum: 0,
            buckets: vec![(0, 90), (20, 10)],
        };
        assert!(skewed.p50() < 2.0, "{}", skewed.p50());
        let (lo, hi) = bucket_bounds(20);
        let p99 = skewed.p99();
        assert!((lo..hi).contains(&p99), "{p99}");
    }

    #[test]
    fn degenerate_histograms_do_not_extrapolate() {
        // One sample: percentiles are the sample itself, exactly.
        let single = HistStat {
            name: "one".into(),
            count: 1,
            sum: 1_000_003,
            buckets: vec![(bucket_index(1_000_003), 1)],
        };
        for p in [single.p50(), single.p90(), single.p99()] {
            assert_eq!(p, 1_000_003.0);
        }
        // All samples in one bucket but with a mean outside the bucket
        // (possible only via inconsistent inputs): clamp, never escape.
        let inconsistent = HistStat {
            name: "clamped".into(),
            count: 2,
            sum: 1_000_000,
            buckets: vec![(4, 2)],
        };
        assert_eq!(inconsistent.p99(), 32.0, "clamped to the bucket's top");
        // Two buckets keep the interpolating path: p50 below p99.
        let spread = HistStat {
            name: "two".into(),
            count: 10,
            sum: 0,
            buckets: vec![(2, 5), (8, 5)],
        };
        assert!(spread.p50() < spread.p99());
    }

    #[test]
    fn exports_carry_percentiles() {
        let _guard = lock();
        reset();
        enable();
        let h = histogram!("test.pct");
        for v in 0..64u64 {
            h.record(v);
        }
        let snap = snapshot();
        assert!(snap.to_table().contains("p99="));
        assert!(snap.to_json().contains("\"p99\": "));
        disable();
        reset();
    }

    #[test]
    fn spans_never_touch_the_registry() {
        let _guard = lock();
        reset();
        enable();
        trace::stop();
        trace::clear();
        counter!("test.span_free").incr();
        let before = snapshot();
        {
            let _outer = span!("untraced_outer");
            let _inner = span!("untraced_inner");
        }
        assert_eq!(snapshot(), before, "a span leaves the registry as it was");
        assert_eq!(trace::buffered_events(), 0, "and buffers no trace events");
        disable();
        reset();
    }

    #[test]
    fn concurrent_counter_increments_all_land() {
        let _guard = lock();
        reset();
        enable();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..10_000 {
                        counter!("test.concurrent").incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(snapshot().counter("test.concurrent"), Some(80_000));
        disable();
        reset();
    }

    #[test]
    fn snapshot_aggregates_same_name_call_sites() {
        let _guard = lock();
        reset();
        enable();
        counter!("test.same").add(2);
        counter!("test.same").add(3); // distinct static cell, same name
        assert_eq!(snapshot().counter("test.same"), Some(5));
        disable();
        reset();
    }

    #[test]
    fn reset_zeroes_everything() {
        let _guard = lock();
        reset();
        enable();
        counter!("test.reset").incr();
        histogram!("test.reset_hist").record(9);
        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("test.reset"), Some(0));
        let h = snap
            .histograms
            .iter()
            .find(|h| h.name == "test.reset_hist")
            .unwrap();
        assert_eq!((h.count, h.sum, h.buckets.len()), (0, 0, 0));
        disable();
        reset();
    }

    #[test]
    fn json_export_is_stable_and_escaped() {
        let _guard = lock();
        reset();
        enable();
        counter!("test.json\"quoted\"").incr();
        let a = snapshot();
        let b = snapshot();
        assert_eq!(a.to_json(), b.to_json(), "identical state, identical bytes");
        let doc = a.to_json();
        assert!(doc.contains(r#""test.json\"quoted\"": 1"#), "{doc}");
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        disable();
        reset();
    }

    #[test]
    fn table_export_mentions_sections() {
        let _guard = lock();
        reset();
        enable();
        counter!("test.table").add(9);
        let table = snapshot().to_table();
        assert!(table.contains("counters:"));
        assert!(table.contains("test.table"));
        disable();
        reset();
        assert!(snapshot().to_table().contains("no metrics recorded") || !snapshot().is_empty());
    }
}
