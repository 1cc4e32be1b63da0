//! In-memory spans recorded around calls into each layer. Nothing is
//! written until the run ends.

use crate::json::Json;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    /// Units of work the span covered (ids, frames, events, ...).
    count: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize, count: u64) {
        let end = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.count = count;
    }

    /// Records a span of `ns` ending now: for work timed in pieces.
    pub fn record(&mut self, name: &'static str, parent: Option<usize>, ns: u64, count: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            start_ns: end_ns.saturating_sub(ns),
            end_ns,
            count,
        });
    }

    /// Runs `f` inside a span named `name` covering `count` units.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        count: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f();
        self.close(id, count);
        r
    }

    /// Duration of span `id` in nanoseconds.
    pub fn duration_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        s.end_ns - s.start_ns
    }

    /// Summed duration and units of every span called `name`.
    pub fn totals(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| {
                (ns + (s.end_ns - s.start_ns), n + s.count)
            })
    }

    /// Mean nanoseconds per unit over every span called `name`.
    pub fn ns_per_unit(&self, name: &str) -> f64 {
        let (ns, n) = self.totals(name);
        ns as f64 / n.max(1) as f64
    }

    /// All spans, each with its self time: its duration minus the part
    /// its direct children cover.
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
            .map(|(i, s)| {
                let mut o = Json::obj();
                o.set("id", i);
                o.set("name", s.name);
                o.set("parent", s.parent.map_or(Json::Null, Json::from));
                o.set("start_ns", s.start_ns);
                o.set("end_ns", s.end_ns);
                o.set(
                    "self_ns",
                    (s.end_ns - s.start_ns).saturating_sub(child_ns[i]),
                );
                o.set("count", s.count);
                o
            })
            .collect();
        Json::Arr(spans)
    }
}
