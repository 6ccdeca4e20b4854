//! In-memory span log of the traced run, written out when it ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Epoch id of spans outside the epoch loop (engine set-up, replayed
/// oblivious build).
pub const SETUP: i64 = -1;

struct Span {
    name: &'static str,
    epoch: i64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Spans in open order; a span's parent is the span that caused it.
pub struct SpanLog {
    base: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.base.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, epoch: i64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            epoch,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Close span `id`; returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// One JSON object per line: id, name, epoch, parent, start/end ns.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"epoch\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.epoch, s.start_ns, s.end_ns
            );
        }
        out
    }
}
