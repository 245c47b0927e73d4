//! In-memory spans recorded around the benchmark's calls into the
//! program's public functions. Nothing is traced inside the program: a
//! span covers one call, as seen by its caller.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::Summary;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request id: every span of one operation shares it.
    pub rid: u64,
    pub thread: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span recorder. Spans stay in memory until the run ends.
pub struct Tracer {
    origin: Instant,
    thread: u32,
    rid: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant, thread: u32) -> Tracer {
        Tracer {
            origin,
            thread,
            rid: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open the root span of a new operation with request id `rid`.
    pub fn request(&mut self, rid: u64, name: &'static str) -> usize {
        assert!(self.stack.is_empty(), "request opened inside another span");
        self.rid = rid;
        self.begin(name)
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            rid: self.rid,
            thread: self.thread,
        });
        self.stack.push(idx);
        idx
    }

    pub fn end(&mut self, idx: usize) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Time one call as a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the time its direct
/// children cover (children of one tracer never overlap each other).
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Per-layer self times: for each span name, the summed self time (ms)
/// within each operation, summarised over the operations that ran that
/// layer. `unattributed_ms` is, per operation rooted at a span named
/// `root`, the root's latency minus the self times of the spans of that
/// operation named in `blocking`: the part of the latency no timed call
/// on its blocking path accounts for.
pub fn layer_summaries(spans: &[Span], root: &str, blocking: &[&str]) -> BTreeMap<String, Summary> {
    let selfs = self_times(spans);
    let mut per_op: BTreeMap<(&str, u32, u64), f64> = BTreeMap::new();
    let mut latency: BTreeMap<(u32, u64), f64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(&selfs) {
        let ms = *self_ns as f64 / 1e6;
        if s.parent.is_none() && s.name == root {
            latency.insert((s.thread, s.rid), s.dur_ns() as f64 / 1e6);
        } else {
            *per_op.entry((s.name, s.thread, s.rid)).or_default() += ms;
        }
    }
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (&(thread, rid), total) in &latency {
        let covered: f64 = blocking
            .iter()
            .filter_map(|name| per_op.get(&(*name, thread, rid)))
            .sum();
        samples
            .entry("unattributed_ms".to_string())
            .or_default()
            .push(total - covered);
    }
    for ((name, _, _), ms) in per_op {
        samples.entry(name.to_string()).or_default().push(ms);
    }
    samples
        .into_iter()
        .map(|(k, v)| (k, Summary::of(&v)))
        .collect()
}

/// Durations (ms) of the root spans called `root`.
pub fn root_latencies(spans: &[Span], root: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect()
}

/// Chrome `trace_event` JSON (complete events), loadable in Perfetto or
/// `chrome://tracing`. `args` carries the request id and the span's own
/// and parent indices within its thread.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": 1, \
             \"tid\": {}, \"args\": {{\"rid\": {}, \"id\": {i}, \"parent\": {parent}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.thread,
            s.rid
        ));
    }
    out.push_str("\n]\n");
    out
}
