//! The benchmark's own span recorder and the order statistics it reports.
//!
//! Spans are recorded only around calls the benchmark makes into a layer
//! (`NocSim::run`, `MultiTileMachine::run_until_halt`, `ServeCampaign::step`,
//! ...); nothing inside the program is instrumented. A disabled recorder
//! calls straight through, so untraced repetitions pay one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified call name, e.g. `machine.step`.
    pub name: &'static str,
    /// Repetition the span belongs to (the shared identifier of one
    /// setup-and-run of the workload).
    pub rep: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder, switched on only for traced repetitions.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    rep: u32,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// A recorder that starts disabled.
    pub fn new() -> Self {
        Trace {
            enabled: false,
            rep: 0,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts repetition `rep`, recording spans only if `enabled`.
    pub fn begin_rep(&mut self, rep: u32, enabled: bool) {
        self.rep = rep;
        self.enabled = enabled;
    }

    /// Runs `f`, recording it as span `name` (nested under any open span)
    /// when the recorder is enabled.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Trace) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            rep: self.rep,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Spans called `name`, counted per repetition that recorded any.
    pub fn calls_per_rep(&self, name: &str) -> Vec<f64> {
        let mut per_rep: std::collections::BTreeMap<u32, u64> = Default::default();
        for span in self.spans.iter().filter(|s| s.name == name) {
            *per_rep.entry(span.rep).or_default() += 1;
        }
        per_rep.into_values().map(|n| n as f64).collect()
    }

    /// Every recorded span as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto), with the repetition, span id and parent id as arguments.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"rep\":{},\"id\":{id},\"parent\":{parent}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.rep,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}\n");
        out
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Lower quartile, median and upper quartile of `values` (zeros when
/// empty), with the median's even-count averaging.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let half = sorted.len() / 2;
    let lower = &sorted[..half];
    let upper = &sorted[sorted.len() - half..];
    let outer = |side: &[f64]| {
        if side.is_empty() {
            median(&sorted)
        } else {
            median(side)
        }
    };
    [outer(lower), median(&sorted), outer(upper)]
}

/// Percentiles tried, highest first, when reporting a tail.
const TAIL_PERCENTILES: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// A tail latency: the highest percentile with at least ten samples
/// beyond it, with the sample count it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (0 when there were too few samples).
    pub percentile: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// The highest of [`TAIL_PERCENTILES`] that leaves at least ten samples
/// above its nearest-rank value; with ten samples or fewer, the maximum
/// is reported at percentile 0.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    for p in TAIL_PERCENTILES {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return Tail {
                percentile: p,
                value: sorted[rank - 1],
                samples: n,
            };
        }
    }
    Tail {
        percentile: 0.0,
        value: sorted.last().copied().unwrap_or(0.0),
        samples: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_split_the_halves() {
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.5, 2.5, 3.5]);
        assert_eq!(quartiles(&[7.0]), [7.0, 7.0, 7.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.percentile, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.samples, 1000);
        let few = tail(&[1.0, 5.0, 2.0]);
        assert_eq!((few.percentile, few.value), (0.0, 5.0));
    }

    #[test]
    fn spans_nest_and_disabled_recorder_records_nothing() {
        let mut trace = Trace::new();
        trace.span("off", |_| ());
        trace.begin_rep(1, true);
        trace.span("outer", |t| t.span("inner", |_| ()));
        assert!(trace.durations("off").is_empty());
        assert_eq!(trace.durations("inner").len(), 1);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.calls_per_rep("inner"), vec![1.0]);
    }
}
