//! In-memory span recorder for the traced pass.
//!
//! The harness wraps each call into a library layer in a span
//! `{name, start, end, parent, step, rank}` on one process-wide epoch, keeps
//! them in memory (one recorder per rank, no locking) and writes them out
//! once, after the measurement, as a Chrome-trace file.

use crate::report::json_str;
use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process-wide epoch (first call wins).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same recorder, or `NO_PARENT`.
    pub parent: u32,
    pub step: u32,
    pub rank: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

/// One rank's spans, in begin order.
pub struct Recorder {
    on: bool,
    rank: u32,
    step: u32,
    pub spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(rank: u32) -> Self {
        Recorder {
            on: true,
            rank,
            step: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder that records nothing, for the untraced pass of code that
    /// is written once for both passes.
    pub fn off() -> Self {
        Recorder {
            on: false,
            ..Recorder::new(0)
        }
    }

    pub fn set_step(&mut self, step: u32) {
        self.step = step;
    }

    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(self.spans.len() as u32);
        let start = now_ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            step: self.step,
            rank: self.rank,
        });
    }

    /// Close the innermost open span and return its duration in seconds.
    pub fn end(&mut self) -> f64 {
        if !self.on {
            return 0.0;
        }
        let end = now_ns();
        let i = self
            .open
            .pop()
            .expect("Recorder::end without a matching begin") as usize;
        self.spans[i].end = end;
        self.spans[i].secs()
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.begin(name);
        let r = f(self);
        self.end();
        r
    }

    /// Durations of every closed span called `name`, in begin order.
    pub fn secs_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }
}

/// Self time of each span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            own[s.parent as usize] -= s.secs();
        }
    }
    own
}

/// Share of each `step` span that its direct children cover, one value per
/// step span: how much of the step the layer spans account for.
pub fn step_coverage(spans: &[Span]) -> Vec<f64> {
    let own = self_times(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "step" && s.end > s.start)
        .map(|(s, own)| 1.0 - own / s.secs())
        .collect()
}

/// Chrome-trace (`chrome://tracing`, Perfetto) JSON of all ranks' spans:
/// complete events (`ph:"X"`), `pid` = workload, `tid` = rank, times in µs.
pub fn chrome_trace(workload: &str, ranks: &[Recorder]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    out.push_str(&format!(
        "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":{}}}}}",
        json_str(workload)
    ));
    for rec in ranks {
        let own = self_times(&rec.spans);
        for (s, own) in rec.spans.iter().zip(own) {
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"step\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                s.rank,
                json_str(s.name),
                s.start as f64 * 1e-3,
                (s.end - s.start) as f64 * 1e-3,
                s.step,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
                own * 1e6,
            ));
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mk = |start, end, parent| Span {
            name: "x",
            start,
            end,
            parent,
            step: 0,
            rank: 0,
        };
        let spans = [
            Span {
                name: "step",
                ..mk(0, 1_000, NO_PARENT)
            },
            mk(100, 400, 0),
            mk(500, 900, 0),
            mk(600, 700, 2),
        ];
        let own = self_times(&spans);
        assert!((own[0] - 300e-9).abs() < 1e-15);
        assert!((own[2] - 300e-9).abs() < 1e-15);
        assert!((step_coverage(&spans)[0] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let mut r = Recorder::new(3);
        r.set_step(2);
        r.span("step", |r| r.span("tree.build", |_| ()));
        assert_eq!(r.spans[1].parent, 0);
        assert_eq!(r.spans[1].step, 2);
        let json = chrome_trace("w", &[r]);
        assert!(json.contains("\"tid\":3") && json.contains("\"name\":\"tree.build\""));
    }
}
