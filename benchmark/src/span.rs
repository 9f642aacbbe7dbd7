//! In-memory spans recorded around the calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it, and the id
//! of the op it belongs to. Spans stay in memory until the run ends and are
//! then written out as a Chrome trace. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use kath_json::{Json, JsonMap};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread. `enter` nests under the innermost open
/// span; `exit` closes it.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next op: spans entered from here on carry its id.
    pub fn next_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Opens a span under the innermost open span and returns its handle.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span, in nanoseconds, in span order.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// Total self time per span name, in milliseconds.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 / 1e6;
        }
        out
    }

    /// The spans as a Chrome-trace document (`chrome://tracing`, Perfetto):
    /// one complete ("X") event per span, timestamps in microseconds.
    pub fn chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = JsonMap::new();
                args.insert("span", Json::Num(id as f64));
                args.insert("op", Json::Num(s.op as f64));
                if let Some(p) = s.parent {
                    args.insert("parent", Json::Num(p as f64));
                }
                let mut e = JsonMap::new();
                e.insert("name", Json::str(s.name));
                e.insert("ph", Json::str("X"));
                e.insert("pid", Json::Num(1.0));
                e.insert("tid", Json::Num(1.0));
                e.insert("ts", Json::Num(s.start_ns as f64 / 1e3));
                e.insert("dur", Json::Num(s.duration_ns() as f64 / 1e3));
                e.insert("args", Json::Object(args));
                Json::Object(e)
            })
            .collect();
        Json::object([("traceEvents", Json::Array(events))])
    }
}

/// Self time of each span: its duration minus the union of its children's
/// intervals, each clipped to the parent's own interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("op", None, 0, 100),
            span("a", Some(0), 10, 40),       // sibling 1
            span("a.inner", Some(1), 15, 25), // nested under a
            span("b", Some(0), 50, 90),       // sibling 2
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("op", None, 100, 200),
            span("x", Some(0), 110, 150),
            span("y", Some(0), 140, 160), // overlaps x by 10
            span("z", Some(0), 190, 250), // overhangs the parent by 50
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_nests_by_call_order_and_tags_ops() {
        let mut t = Tracer::new();
        let op = t.next_op();
        let root = t.enter("op");
        let a = t.enter("a");
        t.exit(a);
        let b = t.enter("b");
        let c = t.enter("b.inner");
        t.exit(c);
        t.exit(b);
        t.exit(root);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert!(t.spans().iter().all(|s| s.op == op));
        assert_eq!(t.durations_ms("a").len(), 1);
        let total: u64 = t.self_times_ns().iter().sum();
        assert_eq!(total, t.spans()[0].duration_ns());
        let trace = kath_json::to_string(&t.chrome_trace());
        assert!(trace.contains("traceEvents") && trace.contains("b.inner"));
    }
}
