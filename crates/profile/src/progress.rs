//! Live sweep progress: a heartbeat line on stderr every N instances.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::analyze::Profile;
use crate::input::TraceInput;
use crate::render::format_ns;

/// A heartbeat reporter for long instance sweeps.
///
/// Worker closures call [`Progress::tick`] once per finished instance;
/// every `stride` completions (and on the final one) a single status line
/// goes to stderr: instances done, completion rate, ETA, and — when the
/// trace layer is recording — the hottest span by self time so far,
/// harvested live from the in-process rings. Construct with
/// `enabled = false` to make every tick a no-op (the experiments pass
/// `exp`'s `--profile` flag here, so undecorated runs stay silent).
///
/// When the process streams shard telemetry
/// (`defender_obs::telemetry::enabled()`), ticks stay live even for a
/// reporter constructed disabled: stride boundaries emit an `instance`
/// event instead of a stderr line, which is how a `defender sweep`
/// parent gets per-shard progress without forcing `--profile` noise
/// into every worker's console.
///
/// Ticks are lock-free; when two workers cross a stride boundary
/// simultaneously both lines print, which is harmless for a diagnostic.
#[derive(Debug)]
pub struct Progress {
    label: String,
    total: u64,
    stride: u64,
    /// Monotone and read only for display, so `Relaxed` suffices.
    done: AtomicU64,
    start_ns: u64,
    enabled: bool,
}

impl Progress {
    /// A reporter for `total` instances under `label`, emitting every
    /// `stride` completions (clamped to at least 1). Disabled reporters
    /// never print.
    #[must_use]
    pub fn new(label: &str, total: u64, stride: u64, enabled: bool) -> Progress {
        Progress {
            label: label.to_string(),
            total,
            stride: stride.max(1),
            done: AtomicU64::new(0),
            start_ns: if enabled || defender_obs::telemetry::enabled() {
                defender_obs::trace::elapsed_ns()
            } else {
                0
            },
            enabled,
        }
    }

    /// A reporter with the default cadence: 16 heartbeats over the sweep
    /// (every `total/16` instances, at least 1).
    #[must_use]
    pub fn with_default_stride(label: &str, total: u64, enabled: bool) -> Progress {
        Progress::new(label, total, total / 16, enabled)
    }

    /// Records one finished instance; prints (and/or emits an `instance`
    /// telemetry event) on stride boundaries.
    pub fn tick(&self) {
        let telemetry = defender_obs::telemetry::enabled();
        if !self.enabled && !telemetry {
            return;
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if done % self.stride == 0 || done == self.total {
            let elapsed_ns = defender_obs::trace::elapsed_ns().saturating_sub(self.start_ns);
            if telemetry {
                defender_obs::telemetry::Event::new("instance")
                    .str("label", &self.label)
                    .u64("done", done)
                    .u64("total", self.total)
                    .u64("elapsed_ns", elapsed_ns)
                    .emit();
            }
            if self.enabled {
                self.emit(done, elapsed_ns);
            }
        }
    }

    /// Instances recorded so far.
    #[must_use]
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    fn emit(&self, done: u64, elapsed_ns: u64) {
        let rate = rate_per_sec(done, elapsed_ns);
        let eta = eta_seconds(done, self.total, elapsed_ns)
            .map_or("?".to_string(), |eta| format!("{eta:.1}s"));
        let pct = if self.total > 0 {
            format!("{:.1}%", done as f64 * 100.0 / self.total as f64)
        } else {
            "-".to_string()
        };
        let top = if defender_obs::trace::enabled() {
            let profile = Profile::build(&TraceInput::from_live());
            profile.top_span().map_or(String::new(), |s| {
                format!(" top {} self {}", s.name, format_ns(s.self_ns))
            })
        } else {
            String::new()
        };
        eprintln!(
            "[{}] {}/{} ({pct}) {rate:.1}/s eta {eta}{top}",
            self.label, done, self.total
        );
    }
}

/// Completion rate in instances/second. The elapsed time is clamped to
/// one nanosecond: the first instance of a sweep can land with an
/// elapsed reading of zero (coarse clocks, or a trace epoch taken after
/// the reporter started), and `done / 0` would print an infinite rate.
#[must_use]
pub fn rate_per_sec(done: u64, elapsed_ns: u64) -> f64 {
    done as f64 / (elapsed_ns.max(1) as f64 / 1e9)
}

/// Estimated seconds until `total` instances complete.
///
/// Boundary behavior, each previously a wrong or absurd ETA:
///
/// - `done == 0` → `None` (no rate to extrapolate; callers print `?`);
/// - `done >= total` → `Some(0.0)` (finished; over-counted sweeps — ticks
///   beyond `total` — clamp to 0 instead of going negative);
/// - `elapsed_ns == 0` → finite, via the [`rate_per_sec`] clamp (the old
///   arithmetic rounded the rate to 0 and reported an unknown ETA on the
///   first stride of a fast sweep).
#[must_use]
pub fn eta_seconds(done: u64, total: u64, elapsed_ns: u64) -> Option<f64> {
    if done == 0 {
        return None;
    }
    if done >= total {
        return Some(0.0);
    }
    Some((total - done) as f64 / rate_per_sec(done, elapsed_ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_reporters_are_no_ops() {
        let p = Progress::new("e1", 10, 2, false);
        for _ in 0..10 {
            p.tick();
        }
        assert_eq!(p.done(), 0, "disabled ticks are no-ops");
    }

    #[test]
    fn enabled_reporters_count_every_tick() {
        let p = Progress::new("e1", 4, 100, true);
        p.tick();
        p.tick();
        assert_eq!(p.done(), 2);
    }

    #[test]
    fn stride_is_clamped_to_one() {
        let p = Progress::with_default_stride("e1", 3, true);
        assert_eq!(p.stride, 1, "total/16 rounds to 0, clamps to 1");
        let q = Progress::new("e1", 100, 0, true);
        assert_eq!(q.stride, 1);
    }

    #[test]
    fn rate_clamps_zero_elapsed() {
        // First instance completing at elapsed 0 must not divide by zero
        // or report rate 0 (which used to force an unknown ETA).
        let rate = rate_per_sec(1, 0);
        assert!(rate.is_finite() && rate > 0.0, "{rate}");
        // Sane midpoint: 5 instances in 2s is 2.5/s.
        assert!((rate_per_sec(5, 2_000_000_000) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn eta_boundaries_are_clamped() {
        assert_eq!(eta_seconds(0, 10, 1_000), None, "no instances, no rate");
        assert_eq!(eta_seconds(10, 10, 1_000), Some(0.0), "finished");
        assert_eq!(
            eta_seconds(12, 10, 1_000),
            Some(0.0),
            "over-counted clamps, not negative"
        );
        assert_eq!(
            eta_seconds(1, 1, 0),
            Some(0.0),
            "single-instance sweep at elapsed 0"
        );
        let eta = eta_seconds(1, 3, 0).expect("finite via the 1ns clamp");
        assert!(eta.is_finite() && eta >= 0.0, "{eta}");
        // Halfway through at 4s elapsed: 4s remain.
        let eta = eta_seconds(5, 10, 4_000_000_000).expect("mid-sweep");
        assert!((eta - 4.0).abs() < 1e-9, "{eta}");
    }

    #[test]
    fn eta_of_total_zero_is_done() {
        // total == 0 with a tick recorded anyway (defensive): done >= total.
        assert_eq!(eta_seconds(1, 0, 1_000), Some(0.0));
    }
}
