//! Spans recorded by the benchmark around its calls into the program's
//! layers, and the statistics the report is built from.
//!
//! A span has a name, a start, an end, a parent span, and the id of the
//! request or instance it belongs to. Spans stay in memory until the run
//! ends, then [`Recorder::write_json`] writes them out. A layer's self
//! time is its span's duration minus the part of that interval covered
//! by its child spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Request or instance id shared by every span of one operation.
    pub op: u64,
    /// Layer call, e.g. `serve.api.parse`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log with a stack of open spans (one thread).
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span, returned by [`Recorder::begin`].
#[must_use = "close the span with Recorder::end"]
#[derive(Debug)]
pub struct Open(usize);

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span of operation `op`, nested in the innermost open span.
    pub fn begin(&mut self, op: u64, name: &'static str) -> Open {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let index = self.spans.len() - 1;
        self.open.push(index);
        Open(index)
    }

    /// Closes `span` (and any span left open inside it) and returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, span: Open) -> u64 {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == span.0 {
                break;
            }
        }
        self.spans[span.0].duration_ns()
    }

    /// Times `f` as a span of operation `op`.
    pub fn time<T>(&mut self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        let span = self.begin(op, name);
        let out = f();
        self.end(span);
        out
    }

    /// Records an already measured interval as a root span.
    pub fn record(&mut self, op: u64, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            op,
            name,
            parent: None,
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals clipped to it.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(s, e) in kids.iter() {
                    let s = s.max(reach);
                    let e = e.min(span.end_ns);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Self times grouped by span name, in nanoseconds.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            by_name.entry(span.name).or_default().push(self_ns);
        }
        by_name
    }

    /// Whole durations grouped by span name, in nanoseconds.
    pub fn durations_by_name(&self) -> BTreeMap<&'static str, Vec<u64>> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for span in &self.spans {
            by_name
                .entry(span.name)
                .or_default()
                .push(span.duration_ns());
        }
        by_name
    }

    /// Writes every span as one JSON object per line.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile `q` of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nanoseconds to the given unit, for a list of samples.
pub fn scaled(values: &[u64], per: f64) -> Vec<f64> {
    values.iter().map(|&v| v as f64 / per).collect()
}

/// Nanoseconds per microsecond.
pub const US: f64 = 1e3;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::new(Instant::now());
        rec.spans = vec![
            Span {
                op: 0,
                name: "root",
                parent: None,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                op: 0,
                name: "a",
                parent: Some(0),
                start_ns: 10,
                end_ns: 40,
            },
            Span {
                op: 0,
                name: "b",
                parent: Some(0),
                start_ns: 30,
                end_ns: 60,
            },
        ];
        assert_eq!(rec.self_times_ns(), vec![50, 30, 30]);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
