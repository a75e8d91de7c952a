//! In-memory spans and counters for the traced run.
//!
//! Every call the benchmark makes into a layer crate's public API is wrapped
//! in a span named after the layer (`core.check.fast`, `opt.retime`, ...).
//! Each op opens one root span; layer spans are its children. Spans stay in
//! memory until the run ends. Counters are summed at the same boundaries.
//! A disabled recorder costs one branch per call, so the untraced run goes
//! through the same code as the traced one.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Name of the root span every op opens.
pub const OP: &str = "op";

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Position of the span in the recording.
    pub id: u32,
    /// The span open when this one started (`None` for an op's root span).
    pub parent: Option<u32>,
    /// The op the span belongs to.
    pub op: u64,
    /// Layer span name, or [`OP`].
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The recorder. `Trace::off()` records nothing.
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
    levels: BTreeMap<&'static str, f64>,
}

impl Trace {
    /// A recorder that records nothing.
    pub fn off() -> Trace {
        Trace::new(false)
    }

    /// A recorder that keeps every span and counter.
    pub fn on() -> Trace {
        Trace::new(true)
    }

    fn new(enabled: bool) -> Trace {
        Trace {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
            levels: BTreeMap::new(),
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { id, parent, op: self.op, name, start_ns, end_ns: start_ns });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: u32) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in stack order");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Opens op `op`'s root span.
    pub fn begin_op(&mut self, op: u64) {
        if self.enabled {
            self.op = op;
            self.open(OP);
        }
    }

    /// Closes the root span opened by [`Trace::begin_op`].
    pub fn end_op(&mut self) {
        if self.enabled {
            let id = *self.open.last().expect("an op is open");
            self.close(id);
        }
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let id = self.open(name);
        let result = f();
        self.close(id);
        result
    }

    /// Adds `value` to counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0.0) += value;
        }
    }

    /// Records level `name` (a size sampled once, not summed per op).
    pub fn set(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.levels.insert(name, value);
        }
    }

    /// The summed counters recorded so far.
    pub fn counts(&self) -> &BTreeMap<&'static str, f64> {
        &self.counts
    }

    /// The levels recorded so far.
    pub fn levels(&self) -> &BTreeMap<&'static str, f64> {
        &self.levels
    }

    /// Self time per span name (duration minus the part covered by child
    /// spans), in nanoseconds, summed over every op.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent as usize] += span.ns();
            }
        }
        let mut out = BTreeMap::new();
        for span in &self.spans {
            *out.entry(span.name).or_insert(0) += span.ns() - child_ns[span.id as usize];
        }
        out
    }

    /// Root-span durations, one per op, in op order.
    pub fn op_ns(&self) -> Vec<u64> {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::ns).collect()
    }

    /// Total time covered by layer spans directly under an op's root span.
    pub fn covered_ns(&self) -> u64 {
        let roots: Vec<bool> = self.spans.iter().map(|s| s.parent.is_none()).collect();
        self.spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| roots[p as usize]))
            .map(Span::ns)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_direct_children() {
        let mut tr = Trace::on();
        tr.begin_op(0);
        tr.span("outer", || std::thread::sleep(std::time::Duration::from_millis(2)));
        tr.end_op();
        let self_ns = tr.self_ns();
        let op = tr.op_ns()[0];
        assert_eq!(self_ns[OP] + self_ns["outer"], op);
        assert_eq!(tr.covered_ns(), self_ns["outer"]);
        assert!(tr.covered_ns() >= 2_000_000);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut tr = Trace::off();
        tr.begin_op(0);
        assert_eq!(tr.span("x", || 7), 7);
        tr.count("c", 1.0);
        tr.end_op();
        assert!(tr.op_ns().is_empty() && tr.counts().is_empty());
    }
}
