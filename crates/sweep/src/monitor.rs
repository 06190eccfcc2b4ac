//! Parent-side live aggregation of the shard telemetry stream.
//!
//! The [`Monitor`] folds every decoded [`ShardEvent`] into a per-shard
//! view (state, instance progress, rate, ETA, hottest span, last-heard
//! time) and renders the whole sweep as a text dashboard. Rendering is a
//! pure function of the monitor state so tests can assert on it; the
//! runner decides how often to draw and whether the terminal supports
//! in-place redraw. Stalled-shard detection is a state machine over the
//! last-heard clock: a running shard that has not produced any telemetry
//! for longer than the configured timeout is flagged (and counted in
//! `sw.stalls`) until it speaks again — workers heartbeat every 500 ms,
//! so a multi-second silence means a wedged or dead process, not a slow
//! instance.

use std::time::{Duration, Instant};

use defender_profile::{eta_seconds, rate_per_sec};

use crate::protocol::ShardEvent;

/// Lifecycle of one shard as seen by the parent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardState {
    /// Not yet spawned.
    Pending,
    /// Spawned; telemetry flowing.
    Running,
    /// Running but silent past the stall timeout.
    Stalled,
    /// Finished and checkpointed (sidecar + DONE marker on disk).
    Done,
    /// Exited non-zero or produced no valid sidecar.
    Failed,
    /// Checkpointed by an earlier run; skipped under `--resume`.
    Resumed,
}

impl ShardState {
    fn label(self) -> &'static str {
        match self {
            ShardState::Pending => "waiting",
            ShardState::Running => "running",
            ShardState::Stalled => "STALLED",
            ShardState::Done => "done",
            ShardState::Failed => "FAILED",
            ShardState::Resumed => "resumed",
        }
    }
}

/// Per-shard aggregate of the telemetry stream.
#[derive(Clone, Debug)]
pub struct ShardView {
    /// Lifecycle state.
    pub state: ShardState,
    /// Worker pid from the `start` event.
    pub pid: Option<u64>,
    /// Instances completed (from the latest `instance` event).
    pub done: u64,
    /// Instances in this shard's window (from `window`/`instance`).
    pub total: u64,
    /// Whether a `window`/`instance` event has pinned `total` — separates
    /// "window not announced yet" from a genuinely empty window (`--shards`
    /// wider than the corpus), which would otherwise render as a shard
    /// stuck "starting".
    pub window_known: bool,
    /// Label of the sweep currently progressing (e.g. `e15.atlas_sweep`).
    pub label: String,
    /// Nanoseconds the current sweep label has been running (worker clock).
    pub elapsed_ns: u64,
    /// Sum of all counters in the latest snapshot (dashboard footer).
    pub counters_total: u64,
    /// Hottest span so far as `(name, total_ns)`.
    pub top_span: Option<(String, u64)>,
    /// Parent-clock time the shard last produced telemetry.
    pub last_heard: Option<Instant>,
}

impl ShardView {
    fn new() -> ShardView {
        ShardView {
            state: ShardState::Pending,
            pid: None,
            done: 0,
            total: 0,
            window_known: false,
            label: String::new(),
            elapsed_ns: 0,
            counters_total: 0,
            top_span: None,
            last_heard: None,
        }
    }
}

/// Compact human duration for the dashboard (`850ms`, `12.3s`, `4m07s`).
#[must_use]
pub fn format_secs(seconds: f64) -> String {
    if seconds < 1.0 {
        format!("{:.0}ms", seconds * 1e3)
    } else if seconds < 120.0 {
        format!("{seconds:.1}s")
    } else {
        let whole = seconds as u64;
        format!("{}m{:02}s", whole / 60, whole % 60)
    }
}

/// The live sweep dashboard state.
#[derive(Debug)]
pub struct Monitor {
    experiment: String,
    views: Vec<ShardView>,
    stall_timeout: Duration,
    started: Instant,
}

impl Monitor {
    /// Creates a monitor for `shards` shards of `experiment`.
    #[must_use]
    pub fn new(experiment: &str, shards: u64, stall_timeout: Duration) -> Monitor {
        Monitor {
            experiment: experiment.to_string(),
            views: (0..shards).map(|_| ShardView::new()).collect(),
            stall_timeout,
            started: Instant::now(),
        }
    }

    /// Read access to the per-shard views.
    #[must_use]
    pub fn views(&self) -> &[ShardView] {
        &self.views
    }

    fn view_mut(&mut self, shard: usize) -> Option<&mut ShardView> {
        self.views.get_mut(shard)
    }

    /// Marks a shard as spawned (before its first event arrives).
    pub fn mark_spawned(&mut self, shard: usize, now: Instant) {
        if let Some(view) = self.view_mut(shard) {
            view.state = ShardState::Running;
            view.last_heard = Some(now);
        }
    }

    /// Marks a shard checkpointed by a previous run (`--resume`).
    pub fn mark_resumed(&mut self, shard: usize) {
        if let Some(view) = self.view_mut(shard) {
            view.state = ShardState::Resumed;
        }
    }

    /// Marks a shard finished and checkpointed.
    pub fn mark_done(&mut self, shard: usize) {
        if let Some(view) = self.view_mut(shard) {
            view.state = ShardState::Done;
            if view.total > 0 {
                view.done = view.total;
            }
        }
    }

    /// Marks a shard failed.
    pub fn mark_failed(&mut self, shard: usize) {
        if let Some(view) = self.view_mut(shard) {
            view.state = ShardState::Failed;
        }
    }

    /// Folds one telemetry event from `shard` into the dashboard.
    pub fn apply(&mut self, shard: usize, event: &ShardEvent, now: Instant) {
        let Some(view) = self.views.get_mut(shard) else {
            return;
        };
        view.last_heard = Some(now);
        if view.state == ShardState::Stalled {
            view.state = ShardState::Running;
        }
        match event {
            ShardEvent::Start { pid } => view.pid = Some(*pid),
            ShardEvent::Window { lo, hi, .. } => {
                view.total = hi.saturating_sub(*lo);
                view.window_known = true;
            }
            ShardEvent::Instance {
                label,
                done,
                total,
                elapsed_ns,
            } => {
                view.label.clone_from(label);
                view.done = *done;
                view.total = *total;
                view.window_known = true;
                view.elapsed_ns = *elapsed_ns;
            }
            ShardEvent::Heartbeat { .. } => {
                defender_obs::counter!("sw.heartbeats").incr();
            }
            ShardEvent::Snapshot {
                counters, spans, ..
            } => {
                view.counters_total = counters.iter().map(|(_, v)| v).sum();
                if let Some((name, ns)) = spans.iter().max_by_key(|(_, ns)| *ns) {
                    view.top_span = Some((name.clone(), *ns));
                }
            }
            ShardEvent::Phase { .. } | ShardEvent::Summary { .. } | ShardEvent::Unknown { .. } => {}
        }
    }

    /// Flags running shards that have been silent past the stall timeout.
    /// Returns how many shards *newly* stalled on this tick.
    pub fn tick(&mut self, now: Instant) -> usize {
        let timeout = self.stall_timeout;
        let mut newly_stalled = 0;
        for view in &mut self.views {
            if view.state != ShardState::Running {
                continue;
            }
            let silent = view
                .last_heard
                .map_or(true, |heard| now.duration_since(heard) > timeout);
            if silent {
                view.state = ShardState::Stalled;
                newly_stalled += 1;
                defender_obs::counter!("sw.stalls").incr();
            }
        }
        newly_stalled
    }

    /// Whether every shard reached a terminal state.
    #[must_use]
    pub fn all_settled(&self) -> bool {
        self.views.iter().all(|v| {
            matches!(
                v.state,
                ShardState::Done | ShardState::Failed | ShardState::Resumed
            )
        })
    }

    /// Renders the dashboard: one header, one line per shard, one footer.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "sweep {} [{} shard(s)] elapsed {}\n",
            self.experiment,
            self.views.len(),
            format_secs(self.started.elapsed().as_secs_f64())
        );
        for (i, view) in self.views.iter().enumerate() {
            out.push_str(&format!("  s{i} {}\n", render_shard(view)));
        }
        let live_counters: u64 = self
            .views
            .iter()
            .filter(|v| v.state == ShardState::Running || v.state == ShardState::Stalled)
            .map(|v| v.counters_total)
            .sum();
        if live_counters > 0 {
            out.push_str(&format!("  live counter total {live_counters}\n"));
        }
        out
    }

    /// Lines in [`Monitor::render`] output (for in-place terminal redraw).
    #[must_use]
    pub fn height(&self) -> usize {
        self.render().lines().count()
    }
}

/// One shard's dashboard line (without the `s<i>` prefix).
fn render_shard(view: &ShardView) -> String {
    match view.state {
        ShardState::Pending => "waiting".to_string(),
        ShardState::Resumed => "resumed from checkpoint".to_string(),
        ShardState::Done | ShardState::Failed => format!(
            "[{}] {}/{} {}",
            bar(view.total, view.total.max(1)),
            view.total,
            view.total,
            view.state.label()
        ),
        ShardState::Running | ShardState::Stalled => {
            let mut line = if view.window_known && view.total == 0 {
                "0/0 empty window".to_string()
            } else if view.total > 0 {
                let mut s = format!(
                    "[{}] {:>3}/{} {}",
                    bar(view.done, view.total),
                    view.done,
                    view.total,
                    view.label
                );
                s.push_str(&format!(
                    " {:.1}/s",
                    rate_per_sec(view.done, view.elapsed_ns)
                ));
                match eta_seconds(view.done, view.total, view.elapsed_ns) {
                    Some(eta) => s.push_str(&format!(" eta {}", format_secs(eta))),
                    None => s.push_str(" eta ?"),
                }
                s
            } else {
                "starting".to_string()
            };
            if let Some((name, ns)) = &view.top_span {
                line.push_str(&format!(" hot {} {}", name, format_secs(*ns as f64 / 1e9)));
            }
            line.push(' ');
            line.push_str(view.state.label());
            line
        }
    }
}

/// A 20-cell progress bar.
fn bar(done: u64, total: u64) -> String {
    const CELLS: u64 = 20;
    let filled = (done.min(total) * CELLS).checked_div(total).unwrap_or(0);
    let mut s = String::with_capacity(CELLS as usize);
    for i in 0..CELLS {
        s.push(if i < filled { '#' } else { '-' });
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance(done: u64, total: u64, elapsed_ns: u64) -> ShardEvent {
        ShardEvent::Instance {
            label: "e15.atlas_sweep".to_string(),
            done,
            total,
            elapsed_ns,
        }
    }

    #[test]
    fn dashboard_tracks_progress_and_renders_eta() {
        let mut m = Monitor::new("e15", 2, Duration::from_secs(5));
        let now = Instant::now();
        m.mark_spawned(0, now);
        m.apply(0, &ShardEvent::Start { pid: 42 }, now);
        m.apply(
            0,
            &ShardEvent::Window {
                total: 1024,
                lo: 0,
                hi: 512,
            },
            now,
        );
        m.apply(0, &instance(256, 512, 2_000_000_000), now);
        let rendered = m.render();
        assert!(
            rendered.contains("s0 [##########----------] 256/512"),
            "{rendered}"
        );
        assert!(rendered.contains("eta 2.0s"), "{rendered}");
        assert!(rendered.contains("running"), "{rendered}");
        assert!(rendered.contains("s1 waiting"), "{rendered}");
        assert_eq!(m.views()[0].pid, Some(42));
        m.mark_done(0);
        assert!(m.render().contains("512/512 done"), "{}", m.render());
    }

    #[test]
    fn empty_windows_render_as_empty_not_starting() {
        // --shards wider than the corpus hands some shards a zero-length
        // window; the dashboard must say so instead of showing the shard
        // perpetually "starting".
        let mut m = Monitor::new("e1", 1, Duration::from_secs(5));
        let now = Instant::now();
        m.mark_spawned(0, now);
        assert!(m.render().contains("starting"), "{}", m.render());
        m.apply(
            0,
            &ShardEvent::Window {
                total: 17,
                lo: 3,
                hi: 3,
            },
            now,
        );
        let rendered = m.render();
        assert!(rendered.contains("0/0 empty window"), "{rendered}");
        assert!(rendered.contains("running"), "{rendered}");
        assert!(!rendered.contains("starting"), "{rendered}");
        m.mark_done(0);
        assert!(m.render().contains("0/0 done"), "{}", m.render());
    }

    #[test]
    fn snapshot_feeds_footer_and_hottest_span() {
        let mut m = Monitor::new("e1", 1, Duration::from_secs(5));
        let now = Instant::now();
        m.mark_spawned(0, now);
        m.apply(
            0,
            &ShardEvent::Snapshot {
                counters: vec![("lp.pivots".to_string(), 40), ("se.tests".to_string(), 2)],
                gauges: Vec::new(),
                spans: vec![
                    ("e1.solve".to_string(), 900_000_000),
                    ("e1.setup".to_string(), 100),
                ],
            },
            now,
        );
        let rendered = m.render();
        assert!(rendered.contains("live counter total 42"), "{rendered}");
        assert!(rendered.contains("hot e1.solve 900ms"), "{rendered}");
    }

    #[test]
    fn silence_past_the_timeout_stalls_and_recovers() {
        let mut m = Monitor::new("e1", 1, Duration::from_millis(100));
        let t0 = Instant::now();
        m.mark_spawned(0, t0);
        assert_eq!(m.tick(t0), 0, "fresh shard is not stalled");
        let late = t0 + Duration::from_millis(250);
        assert_eq!(m.tick(late), 1, "silent past timeout stalls");
        assert_eq!(m.views()[0].state, ShardState::Stalled);
        assert_eq!(m.tick(late), 0, "stall is counted once");
        assert!(m.render().contains("STALLED"), "{}", m.render());
        // Any event revives the shard.
        m.apply(0, &ShardEvent::Heartbeat { elapsed_ns: 1 }, late);
        assert_eq!(m.views()[0].state, ShardState::Running);
    }

    #[test]
    fn settled_means_every_shard_terminal() {
        let mut m = Monitor::new("e1", 3, Duration::from_secs(1));
        assert!(!m.all_settled());
        m.mark_resumed(0);
        m.mark_done(1);
        m.mark_failed(2);
        assert!(m.all_settled());
        let rendered = m.render();
        assert!(rendered.contains("resumed from checkpoint"), "{rendered}");
        assert!(rendered.contains("FAILED"), "{rendered}");
    }
}
