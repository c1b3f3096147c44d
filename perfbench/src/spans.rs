//! Spans the benchmark records around its own calls into each layer:
//! name, start, end and parent, all tagged with the run id. They stay
//! in memory and are written out once the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// The span log of one benchmark run.
pub struct Spans {
    run: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// An empty log for the run named `run`.
    pub fn new(run: String) -> Self {
        Spans {
            run,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span, and returns its result with the span's duration.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, Duration) {
        let id = self.spans.len();
        let start = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let value = f(self);
        let end = self.origin.elapsed();
        self.open.pop();
        self.spans[id].end = end;
        (value, end - start)
    }

    /// One JSON object per span, in opening order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"run\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                self.run,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        out
    }
}
