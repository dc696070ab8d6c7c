//! Spans and counters recorded from outside the program, around each
//! public call an op makes. Everything stays in memory until the run
//! ends; a disabled tracer records nothing and only runs the closures.

use std::time::Instant;

/// One timed call: `op` groups the spans of one op, `parent` is the
/// span that caused it (the op's own span has none).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// A value observed at a layer boundary during one op.
#[derive(Debug, Clone, PartialEq)]
pub struct Counter {
    pub op: u64,
    pub name: &'static str,
    pub value: f64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    counters: Vec<Counter>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id; close it with [`Self::close`].
    pub fn open(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span named `name`, child of `parent`.
    pub fn span<T>(
        &mut self,
        op: u64,
        parent: usize,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(op, Some(parent), name);
        let out = f();
        self.close(id);
        out
    }

    pub fn count(&mut self, op: u64, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.push(Counter { op, name, value });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in ms of every span named `name`, in recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ms)
            .collect()
    }

    /// Values of every counter named `name`, in recording order.
    pub fn values(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .collect()
    }

    /// The spans as JSON lines, one object per span.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
