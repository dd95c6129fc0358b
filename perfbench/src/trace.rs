//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is `{name, layer, start, end, parent, request id}`. Spans stay in
//! memory and are written out when the run ends. A disabled tracer records
//! nothing, so the untraced run pays one branch per call.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer (module) it belongs to.
    pub layer: &'static str,
    /// Start, in ns since the tracer began.
    pub start_ns: u64,
    /// End, in ns since the tracer began.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The round (request) the span served.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off (for alternating traced and untraced
    /// rounds).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Starts attributing spans to request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, layer);
        let r = f();
        self.close(id);
        r
    }

    /// Opens a span that [`Tracer::close`] ends, for work that does not
    /// fit one closure.
    pub fn open(&mut self, name: &'static str, layer: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Ends a span from [`Tracer::open`].
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            if self.open.last() == Some(&idx) {
                self.open.pop();
            }
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Every span recorded.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.ns().saturating_sub(c))
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.layer, s.start_ns, s.end_ns, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("outer", "a", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            Tracer::new(false); // disabled tracers record nothing
        });
        let outer = t.open("outer2", "a");
        t.span("inner", "b", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(outer);
        let selfs = t.self_ns();
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[2].parent, Some(1));
        assert!(selfs[1] < t.spans()[1].ns());
        assert!(t.to_jsonl().lines().count() == 3);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", "y", || 5), 5);
        assert!(off.spans().is_empty());
    }
}
