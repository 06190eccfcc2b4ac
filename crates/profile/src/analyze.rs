//! Stack replay and aggregation: [`TraceInput`] → [`Profile`].

use std::collections::BTreeMap;

use defender_obs::trace::EventKind;

use crate::input::TraceInput;

/// Pool-housekeeping spans elided from span/flamegraph aggregation: they
/// exist only when worker threads are spawned (`--jobs > 1`), so keeping
/// them would make the flamegraph shape jobs-variant. Their frames are
/// redirected into the worker-utilization analysis instead.
const ELIDED: &[&str] = &["par.worker"];

/// Per-span-name aggregation (merged across lanes and call paths).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanAgg {
    /// The span name.
    pub name: String,
    /// Completed calls, plus spans still open at the end of the trace.
    pub calls: u64,
    /// Nanoseconds spent in the span excluding its direct children.
    pub self_ns: u64,
    /// Nanoseconds between begin and end, children included.
    pub total_ns: u64,
}

/// One node of the flamegraph: a distinct span call path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathAgg {
    /// The call path as `outer/inner/leaf` span names.
    pub path: String,
    /// Nesting depth (root = 0).
    pub depth: usize,
    /// Completed calls at exactly this path.
    pub calls: u64,
    /// Self time at this path (children excluded).
    pub self_ns: u64,
    /// Total time at this path (children included).
    pub total_ns: u64,
}

/// Utilization of one pool-worker label (`w<i>`), merged over every
/// `par.worker` stint carrying that label — fresh scoped threads reuse
/// labels across pool spawns, so one label is one logical worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerStat {
    /// The lane label (`w0`, `w1`, …).
    pub label: String,
    /// Nanoseconds inside `par.worker` spans (merged intervals).
    pub busy_ns: u64,
    /// Busy parts-per-million of the trace duration.
    pub busy_ppm: u64,
    /// Number of merged busy stints.
    pub stints: u64,
    /// Longest gap between two consecutive busy stints (0 with < 2).
    pub longest_idle_ns: u64,
}

/// The analyzed trace: aggregations, worker utilization, and the
/// accounting checks the CI gate asserts.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Trace duration in nanoseconds: the latest event timestamp.
    pub duration_ns: u64,
    /// Number of lanes (threads) carrying events.
    pub lanes: usize,
    /// Events lost to ring overflow.
    pub dropped_events: u64,
    /// Spans still open at the end of the trace, closed at `duration_ns`.
    pub unclosed: u64,
    /// End events with no matching begin (possible after ring drops).
    pub unmatched: u64,
    /// Per-name span table, sorted by name.
    pub spans: Vec<SpanAgg>,
    /// Flamegraph nodes in depth-first order with children sorted by
    /// name — deterministic and jobs-invariant.
    pub flame: Vec<PathAgg>,
    /// Instant-marker counts, sorted by name.
    pub marks: Vec<(String, u64)>,
    /// Pool-worker utilization, sorted by label.
    pub workers: Vec<WorkerStat>,
    /// Fork-join critical-path estimate: serial time (wall time not
    /// covered by any worker) plus the busiest single worker's time.
    /// Equals `duration_ns` when no workers ran.
    pub critical_path_ns: u64,
    /// Wall-clock accounting violation, if any: some lane's root spans
    /// sum past the trace duration (a corrupt or mis-clocked trace).
    pub overrun: Option<String>,
}

/// One open span during replay.
struct OpenFrame {
    name: String,
    begin_ns: u64,
    child_ns: u64,
    /// Flamegraph node carrying this frame (`None` for elided frames).
    node: Option<usize>,
    elided: bool,
}

/// A flamegraph tree node under construction.
#[derive(Default)]
struct Node {
    calls: u64,
    self_ns: u64,
    total_ns: u64,
    children: BTreeMap<String, usize>,
}

struct Replay {
    nodes: Vec<Node>,
    roots: BTreeMap<String, usize>,
    spans: BTreeMap<String, SpanAgg>,
    marks: BTreeMap<String, u64>,
    worker_intervals: BTreeMap<String, Vec<(u64, u64)>>,
    unclosed: u64,
    unmatched: u64,
}

impl Replay {
    fn child_node(&mut self, parent: Option<usize>, name: &str) -> usize {
        let map = match parent {
            Some(i) => &mut self.nodes[i].children,
            None => &mut self.roots,
        };
        if let Some(&i) = map.get(name) {
            return i;
        }
        let i = self.nodes.len();
        match parent {
            Some(p) => self.nodes[p].children.insert(name.to_string(), i),
            None => self.roots.insert(name.to_string(), i),
        };
        self.nodes.push(Node::default());
        i
    }

    /// Closes `frame` at `end_ns`: attributes its time to the span and
    /// flamegraph aggregations (unless elided) and returns the total to
    /// charge against the parent's child time.
    fn close(&mut self, frame: OpenFrame, end_ns: u64, lane_label: &str) -> u64 {
        let total = end_ns.saturating_sub(frame.begin_ns);
        let own = total.saturating_sub(frame.child_ns);
        if frame.elided {
            self.worker_intervals
                .entry(if lane_label.is_empty() {
                    frame.name.clone()
                } else {
                    lane_label.to_string()
                })
                .or_default()
                .push((frame.begin_ns, end_ns));
            // Splice: the children already charged `frame.child_ns`; pass
            // it through so the enclosing span's self time stays correct
            // while the elided frame's own time vanishes from the graph.
            return frame.child_ns;
        }
        let agg = self.spans.entry(frame.name.clone()).or_insert(SpanAgg {
            name: frame.name.clone(),
            calls: 0,
            self_ns: 0,
            total_ns: 0,
        });
        agg.calls += 1;
        agg.self_ns += own;
        agg.total_ns += total;
        if let Some(i) = frame.node {
            self.nodes[i].calls += 1;
            self.nodes[i].self_ns += own;
            self.nodes[i].total_ns += total;
        }
        total
    }
}

impl Profile {
    /// Replays every lane's event stream and aggregates.
    ///
    /// Malformed sequences degrade instead of failing: an end with no
    /// matching begin is counted in [`Profile::unmatched`] and skipped
    /// (rings drop oldest-first, so a truncated lane loses begins), and
    /// spans still open at the end of the trace are closed at the trace
    /// duration and counted in [`Profile::unclosed`].
    #[must_use]
    pub fn build(input: &TraceInput) -> Profile {
        let duration_ns = input
            .lanes
            .iter()
            .flat_map(|l| l.events.iter())
            .map(|e| e.ts_ns)
            .max()
            .unwrap_or(0);
        let mut replay = Replay {
            nodes: Vec::new(),
            roots: BTreeMap::new(),
            spans: BTreeMap::new(),
            marks: BTreeMap::new(),
            worker_intervals: BTreeMap::new(),
            unclosed: 0,
            unmatched: 0,
        };
        let mut overrun = None;
        let mut lanes = 0usize;
        for lane in &input.lanes {
            if lane.events.is_empty() {
                continue;
            }
            lanes += 1;
            let mut stack: Vec<OpenFrame> = Vec::new();
            let mut lane_root_ns = 0u64;
            for event in &lane.events {
                match event.kind {
                    EventKind::Begin => {
                        let elided = ELIDED.contains(&event.name.as_str());
                        let node = if elided {
                            None
                        } else {
                            let parent = stack.iter().rev().find_map(|f| f.node);
                            Some(replay.child_node(parent, &event.name))
                        };
                        stack.push(OpenFrame {
                            name: event.name.clone(),
                            begin_ns: event.ts_ns,
                            child_ns: 0,
                            node,
                            elided,
                        });
                    }
                    EventKind::End => {
                        if stack.last().is_some_and(|f| f.name == event.name) {
                            #[expect(
                                clippy::expect_used,
                                reason = "guarded by the is_some_and just above"
                            )]
                            let frame = stack.pop().expect("non-empty stack");
                            let charge = replay.close(frame, event.ts_ns, &lane.label);
                            match stack.last_mut() {
                                Some(parent) => parent.child_ns += charge,
                                None => lane_root_ns += charge,
                            }
                        } else {
                            replay.unmatched += 1;
                        }
                    }
                    EventKind::Instant => {
                        *replay.marks.entry(event.name.clone()).or_insert(0) += 1;
                    }
                }
            }
            while let Some(frame) = stack.pop() {
                replay.unclosed += 1;
                let charge = replay.close(frame, duration_ns, &lane.label);
                match stack.last_mut() {
                    Some(parent) => parent.child_ns += charge,
                    None => lane_root_ns += charge,
                }
            }
            if lane_root_ns > duration_ns && overrun.is_none() {
                overrun = Some(format!(
                    "lane tid {} accounts {} ns of root-span time in a {} ns trace",
                    lane.tid, lane_root_ns, duration_ns
                ));
            }
        }
        let flame = flatten_flame(&replay.nodes, &replay.roots);
        let workers = worker_stats(&replay.worker_intervals, duration_ns);
        let critical_path_ns = critical_path(&replay.worker_intervals, duration_ns);
        Profile {
            duration_ns,
            lanes,
            dropped_events: input.dropped_events,
            unclosed: replay.unclosed,
            unmatched: replay.unmatched,
            spans: replay.spans.into_values().collect(),
            flame,
            marks: replay.marks.into_iter().collect(),
            workers,
            critical_path_ns,
            overrun,
        }
    }

    /// Total self time across all spans (per-name table).
    #[must_use]
    pub fn total_self_ns(&self) -> u64 {
        self.spans.iter().map(|s| s.self_ns).sum()
    }
}

/// Depth-first flattening with children in name order: deterministic for
/// identical shapes, hence jobs-invariant after `par.worker` elision.
fn flatten_flame(nodes: &[Node], roots: &BTreeMap<String, usize>) -> Vec<PathAgg> {
    let mut out = Vec::new();
    let mut pending: Vec<(String, usize, usize)> = roots
        .iter()
        .rev()
        .map(|(name, &i)| (name.clone(), i, 0))
        .collect();
    while let Some((path, i, depth)) = pending.pop() {
        let node = &nodes[i];
        for (name, &child) in node.children.iter().rev() {
            pending.push((format!("{path}/{name}"), child, depth + 1));
        }
        out.push(PathAgg {
            path,
            depth,
            calls: node.calls,
            self_ns: node.self_ns,
            total_ns: node.total_ns,
        });
    }
    out
}

/// Sorts and merges one label's busy intervals (overlaps collapse).
fn merged(intervals: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted = intervals.to_vec();
    sorted.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (lo, hi) in sorted {
        match out.last_mut() {
            Some(last) if lo <= last.1 => last.1 = last.1.max(hi),
            _ => out.push((lo, hi)),
        }
    }
    out
}

fn worker_stats(
    intervals: &BTreeMap<String, Vec<(u64, u64)>>,
    duration_ns: u64,
) -> Vec<WorkerStat> {
    intervals
        .iter()
        .map(|(label, raw)| {
            let stints = merged(raw);
            let busy_ns: u64 = stints.iter().map(|(lo, hi)| hi - lo).sum();
            let longest_idle_ns = stints
                .windows(2)
                .map(|w| w[1].0.saturating_sub(w[0].1))
                .max()
                .unwrap_or(0);
            WorkerStat {
                label: label.clone(),
                busy_ns,
                busy_ppm: busy_ns
                    .saturating_mul(1_000_000)
                    .checked_div(duration_ns)
                    .unwrap_or(0),
                stints: stints.len() as u64,
                longest_idle_ns,
            }
        })
        .collect()
}

/// Fork-join critical-path heuristic: wall time not covered by any worker
/// is serial by definition; for the covered part, the busiest single
/// worker bounds how much the span structure allows to compress. With no
/// workers the whole trace is the critical path.
fn critical_path(intervals: &BTreeMap<String, Vec<(u64, u64)>>, duration_ns: u64) -> u64 {
    if intervals.is_empty() {
        return duration_ns;
    }
    let all: Vec<(u64, u64)> = intervals.values().flatten().copied().collect();
    let covered: u64 = merged(&all).iter().map(|(lo, hi)| hi - lo).sum();
    let serial = duration_ns.saturating_sub(covered);
    let busiest = intervals
        .values()
        .map(|raw| merged(raw).iter().map(|(lo, hi)| hi - lo).sum::<u64>())
        .max()
        .unwrap_or(0);
    serial + busiest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{Lane, LaneEvent};

    fn ev(ts_ns: u64, kind: EventKind, name: &str) -> LaneEvent {
        LaneEvent {
            ts_ns,
            kind,
            name: name.to_string(),
        }
    }

    fn lane(tid: u64, label: &str, events: Vec<LaneEvent>) -> Lane {
        Lane {
            tid,
            label: label.to_string(),
            events,
        }
    }

    #[test]
    fn self_time_excludes_children() {
        let input = TraceInput {
            lanes: vec![lane(
                1,
                "",
                vec![
                    ev(0, EventKind::Begin, "outer"),
                    ev(10, EventKind::Begin, "inner"),
                    ev(30, EventKind::End, "inner"),
                    ev(35, EventKind::Begin, "inner"),
                    ev(40, EventKind::End, "inner"),
                    ev(100, EventKind::End, "outer"),
                ],
            )],
            dropped_events: 0,
        };
        let p = Profile::build(&input);
        assert_eq!(p.duration_ns, 100);
        let outer = &p.spans[p.spans.iter().position(|s| s.name == "outer").unwrap()];
        assert_eq!((outer.calls, outer.total_ns, outer.self_ns), (1, 100, 75));
        let inner = &p.spans[p.spans.iter().position(|s| s.name == "inner").unwrap()];
        assert_eq!((inner.calls, inner.total_ns, inner.self_ns), (2, 25, 25));
        assert_eq!(p.flame.len(), 2);
        assert_eq!(p.flame[0].path, "outer");
        assert_eq!(p.flame[1].path, "outer/inner");
        assert_eq!(p.flame[1].depth, 1);
        assert_eq!(p.overrun, None);
        assert_eq!(p.total_self_ns(), 100);
    }

    #[test]
    fn par_worker_frames_are_elided_into_worker_stats() {
        // jobs=2 shape: two worker lanes, tasks nested under par.worker.
        let worker = |tid, label: &str, shift: u64| {
            lane(
                tid,
                label,
                vec![
                    ev(shift, EventKind::Begin, "par.worker"),
                    ev(shift + 10, EventKind::Begin, "task"),
                    ev(shift + 50, EventKind::End, "task"),
                    ev(shift + 60, EventKind::End, "par.worker"),
                ],
            )
        };
        let parallel = TraceInput {
            lanes: vec![worker(2, "w0", 0), worker(3, "w1", 5)],
            dropped_events: 0,
        };
        // jobs=1 shape: the same two tasks inline on the main lane.
        let inline = TraceInput {
            lanes: vec![lane(
                1,
                "",
                vec![
                    ev(0, EventKind::Begin, "task"),
                    ev(40, EventKind::End, "task"),
                    ev(41, EventKind::Begin, "task"),
                    ev(81, EventKind::End, "task"),
                ],
            )],
            dropped_events: 0,
        };
        let p = Profile::build(&parallel);
        let q = Profile::build(&inline);
        // Jobs-invariant projections agree: span set, calls, flame shape.
        let shape = |p: &Profile| -> Vec<(String, usize, u64)> {
            p.flame
                .iter()
                .map(|f| (f.path.clone(), f.depth, f.calls))
                .collect()
        };
        assert_eq!(shape(&p), shape(&q));
        assert_eq!(shape(&p), vec![("task".to_string(), 0, 2)]);
        assert!(p.spans.iter().all(|s| s.name != "par.worker"));
        // The elided time resurfaces as worker utilization.
        assert_eq!(p.workers.len(), 2);
        assert_eq!(p.workers[0].label, "w0");
        assert_eq!(p.workers[0].busy_ns, 60);
        assert_eq!(p.workers[0].stints, 1);
        assert_eq!(p.workers[0].busy_ppm, 60 * 1_000_000 / 65);
        assert!(q.workers.is_empty());
        // Critical path: serial lead-in/out (0) + busiest worker (60).
        assert_eq!(p.critical_path_ns, 60);
        assert_eq!(q.critical_path_ns, q.duration_ns);
    }

    #[test]
    fn worker_labels_merge_across_pool_spawns() {
        // The same w0 label on two different tids (two par_map calls).
        let input = TraceInput {
            lanes: vec![
                lane(
                    2,
                    "w0",
                    vec![
                        ev(0, EventKind::Begin, "par.worker"),
                        ev(10, EventKind::End, "par.worker"),
                    ],
                ),
                lane(
                    5,
                    "w0",
                    vec![
                        ev(50, EventKind::Begin, "par.worker"),
                        ev(90, EventKind::End, "par.worker"),
                    ],
                ),
            ],
            dropped_events: 0,
        };
        let p = Profile::build(&input);
        assert_eq!(p.workers.len(), 1, "one logical worker");
        assert_eq!(p.workers[0].busy_ns, 50);
        assert_eq!(p.workers[0].stints, 2);
        assert_eq!(p.workers[0].longest_idle_ns, 40);
        // Critical path: 40ns uncovered (10..50) + 50ns busiest = 90.
        assert_eq!(p.critical_path_ns, 90);
    }

    #[test]
    fn unclosed_spans_close_at_the_trace_end() {
        let input = TraceInput {
            lanes: vec![lane(
                1,
                "",
                vec![
                    ev(0, EventKind::Begin, "running"),
                    ev(10, EventKind::Instant, "mark"),
                ],
            )],
            dropped_events: 0,
        };
        let p = Profile::build(&input);
        assert_eq!(p.duration_ns, 10);
        assert_eq!(p.unclosed, 1);
        assert_eq!(p.spans[0].total_ns, 10, "closed at the last event");
        assert_eq!(p.marks, vec![("mark".to_string(), 1)]);
    }

    #[test]
    fn unmatched_ends_are_counted_not_fatal() {
        let input = TraceInput {
            lanes: vec![lane(
                1,
                "",
                vec![
                    ev(5, EventKind::End, "lost_begin"),
                    ev(10, EventKind::Begin, "ok"),
                    ev(20, EventKind::End, "ok"),
                ],
            )],
            dropped_events: 3,
        };
        let p = Profile::build(&input);
        assert_eq!(p.unmatched, 1);
        assert_eq!(p.dropped_events, 3);
        assert_eq!(p.spans.len(), 1);
        assert_eq!(p.spans[0].name, "ok");
    }

    #[test]
    fn overrun_detects_misclocked_lanes() {
        // Root spans summing past the trace duration (the latest
        // timestamp) cannot happen with a monotone clock, so overlap two
        // roots in time on one lane.
        let input = TraceInput {
            lanes: vec![lane(
                1,
                "",
                vec![
                    ev(0, EventKind::Begin, "a"),
                    ev(90, EventKind::End, "a"),
                    ev(20, EventKind::Begin, "b"),
                    ev(100, EventKind::End, "b"),
                ],
            )],
            dropped_events: 0,
        };
        let p = Profile::build(&input);
        assert_eq!(p.duration_ns, 100);
        let msg = p.overrun.expect("170ns of roots in a 100ns trace");
        assert!(msg.contains("tid 1"), "{msg}");
    }

    #[test]
    fn empty_trace_profiles_to_zeroes() {
        let p = Profile::build(&TraceInput::default());
        assert_eq!(p.duration_ns, 0);
        assert_eq!(p.lanes, 0);
        assert!(p.spans.is_empty() && p.flame.is_empty());
        assert_eq!(p.critical_path_ns, 0);
    }

    #[test]
    fn flame_order_is_dfs_with_sorted_siblings() {
        let input = TraceInput {
            lanes: vec![lane(
                1,
                "",
                vec![
                    ev(0, EventKind::Begin, "z_root"),
                    ev(1, EventKind::Begin, "b"),
                    ev(2, EventKind::End, "b"),
                    ev(3, EventKind::Begin, "a"),
                    ev(4, EventKind::End, "a"),
                    ev(5, EventKind::End, "z_root"),
                    ev(6, EventKind::Begin, "a_root"),
                    ev(7, EventKind::End, "a_root"),
                ],
            )],
            dropped_events: 0,
        };
        let paths: Vec<String> = Profile::build(&input)
            .flame
            .into_iter()
            .map(|f| f.path)
            .collect();
        assert_eq!(paths, ["a_root", "z_root", "z_root/a", "z_root/b"]);
    }
}
