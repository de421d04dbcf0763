//! Spans recorded by the benchmark's own code around each call into a layer.
//!
//! Spans live in a pre-allocated `Vec` and are written out only when the run
//! ends. With tracing off `open`/`close` do nothing, which is how the
//! end-to-end metrics are measured.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in the tracer; `NONE` for "no parent" and for every span
/// opened while tracing is off.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub epoch: u32,
    pub round: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Tracer {
            on: false,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Switches recording on or off (the traced run alternates, epoch by
    /// epoch, to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, epoch: u32, round: u32) -> SpanId {
        if !self.on {
            return NONE;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            epoch,
            round,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus its direct children's.
    /// Children are recorded after their parent and before it closes.
    pub fn self_seconds(&self, id: SpanId) -> f64 {
        let parent = &self.spans[id as usize];
        let children: f64 = self.spans[id as usize + 1..]
            .iter()
            .take_while(|s| s.start_ns < parent.end_ns)
            .filter(|s| s.parent == id)
            .map(Span::seconds)
            .sum();
        parent.seconds() - children
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (id, s) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let parent = if s.parent == NONE {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"epoch\":{},\"round\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.epoch,
                s.round,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
