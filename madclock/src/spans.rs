//! In-memory spans around madclock's calls into the layers, written out
//! when the run ends. Spans come from the benchmark's own files only;
//! tracing inside the engine is a later change.

use std::time::Instant;

use crate::surface::{obj, Json};

/// Handle of an open span.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Time inside the span that belongs to callees no span wraps (app
    /// callbacks run from inside the event loop).
    callee_ns: u64,
}

/// Span recorder for one workload. A disabled recorder records nothing,
/// so end-to-end runs pay one branch per call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans::new("", false)
    }

    /// A recorder for `workload`'s traced run.
    pub fn on(workload: &'static str) -> Spans {
        Spans::new(workload, true)
    }

    fn new(workload: &'static str, enabled: bool) -> Spans {
        Spans {
            enabled,
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            callee_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: SpanId) {
        self.close_with_callee_ns(id, 0);
    }

    /// Close `id`, attributing `callee_ns` of its duration to callees that
    /// have no span of their own.
    pub fn close_with_callee_ns(&mut self, id: SpanId, callee_ns: u64) {
        if !self.enabled {
            return;
        }
        assert_eq!(self.open.pop(), Some(id.0), "spans close innermost first");
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.callee_ns = callee_ns;
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.sum(name, |s| s.end_ns - s.start_ns)
    }

    /// Summed callee time of every span called `name`, in seconds.
    pub fn callee_s(&self, name: &str) -> f64 {
        self.sum(name, |s| s.callee_ns)
    }

    fn sum(&self, name: &str, f: impl Fn(&Span) -> u64) -> f64 {
        let ns: u64 = self.spans.iter().filter(|s| s.name == name).map(f).sum();
        ns as f64 / 1e9
    }

    /// The span file: every span with its parent, and a self-time column
    /// (duration minus child spans minus callee time).
    pub fn to_json(&self) -> Json {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let parent = s.parent.map_or(Json::Null, |p| Json::UInt(p as u64));
                let duration = s.end_ns - s.start_ns;
                obj()
                    .field("id", id)
                    .field("parent", parent)
                    .field("workload", self.workload)
                    .field("name", s.name)
                    .field("start_ns", s.start_ns)
                    .field("end_ns", s.end_ns)
                    .field("callee_ns", s.callee_ns)
                    .field(
                        "self_ns",
                        duration.saturating_sub(child_ns[id] + s.callee_ns),
                    )
                    .build()
            })
            .collect::<Vec<_>>();
        obj()
            .field("workload", self.workload)
            .field("clock", "host monotonic, ns since the recorder started")
            .field("spans", spans)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut s = Spans::on("w");
        let outer = s.open("outer");
        let inner = s.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.close(inner);
        s.close_with_callee_ns(outer, 5);
        let doc = s.to_json();
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        let field = |i: usize, k: &str| spans[i].get(k).unwrap().as_u64().unwrap();
        let outer_ns = field(0, "end_ns") - field(0, "start_ns");
        let inner_ns = field(1, "end_ns") - field(1, "start_ns");
        assert!(inner_ns >= 2_000_000);
        assert_eq!(field(0, "self_ns"), outer_ns - inner_ns - 5);
        assert!(s.total_s("inner") >= 0.002);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        let id = s.open("x");
        s.close(id);
        assert_eq!(
            s.to_json().get("spans").unwrap().as_array().unwrap().len(),
            0
        );
    }
}
