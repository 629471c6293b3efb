//! In-memory spans for the traced run.
//!
//! A span times one call from the benchmark into a crate's public API: its
//! layer (the crate), a name, start and end on one monotonic clock, the span
//! that caused it, and how many operations it covered (accesses, probes,
//! states). Spans are kept in memory and written out once, when the run
//! ends, so recording costs two uncontended lock operations per span.
//!
//! A layer's self time is the time its spans cover minus the part their
//! child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use ccsim_util::{Json, ToJson};

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The crate the timed call enters (`engine`, `cache`, …), or
    /// `perfbench` for the benchmark's own grouping spans.
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Operations the span covered; 1 for a single call.
    pub items: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Spans open on this thread, innermost last: the parent of the next one.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Records spans from any thread.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The innermost span open on this thread.
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|o| o.borrow().last().copied())
    }

    /// Time `f` as one call into `layer`, child of this thread's innermost
    /// open span.
    pub fn span<T>(&self, layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_items(self.current(), layer, name, || (f(), 1))
    }

    /// Time `f`, which returns its result and the number of operations it
    /// performed, as a child of `parent` (pass [`Tracer::current`] from the
    /// spawning thread when `f` runs on a pool worker).
    pub fn span_items<T>(
        &self,
        parent: Option<usize>,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span list lock poisoned");
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                layer,
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                items: 0,
            });
            id
        };
        OPEN.with(|o| o.borrow_mut().push(id));
        let (out, items) = f();
        OPEN.with(|o| o.borrow_mut().pop());
        let end = self.now_ns();
        let mut spans = self.spans.lock().expect("span list lock poisoned");
        spans[id].end_ns = end;
        spans[id].items = items;
        out
    }

    /// Totals per span name over the spans recorded so far.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals_by_name(&self.spans.lock().expect("span list lock poisoned"))
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list lock poisoned")
    }
}

/// Time `f` as a span covering `items(result)` operations when tracing, or
/// just run it.
pub fn traced<T>(
    tracer: Option<&Tracer>,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
    items: impl FnOnce(&T) -> u64,
) -> T {
    match tracer {
        Some(t) => t.span_items(t.current(), layer, name, || {
            let out = f();
            let n = items(&out);
            (out, n)
        }),
        None => f(),
    }
}

/// Calls, operations and nanoseconds per span name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub items: u64,
    pub ns: u64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.items += s.items;
        t.ns += s.ns();
    }
    out
}

/// Self time per layer, in nanoseconds: each span's duration minus the
/// union of its children's intervals (children on pool workers may
/// overlap one another), summed by layer.
pub fn self_ns_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(&mut children) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        *out.entry(s.layer).or_default() += s.ns().saturating_sub(covered);
    }
    out
}

/// The spans and per-name call counts as one JSON document.
pub fn to_json(spans: &[Span]) -> Json {
    let list = spans
        .iter()
        .map(|s| {
            Json::obj(vec![
                ("id", (s.id as u64).to_json()),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| (p as u64).to_json()),
                ),
                ("layer", s.layer.to_json()),
                ("name", s.name.to_json()),
                ("start_ns", s.start_ns.to_json()),
                ("end_ns", s.end_ns.to_json()),
                ("items", s.items.to_json()),
            ])
        })
        .collect();
    let calls = totals_by_name(spans)
        .into_iter()
        .map(|(name, t)| (name.to_string(), t.calls.to_json()))
        .collect();
    Json::obj(vec![
        ("spans", Json::Arr(list)),
        ("calls", Json::Obj(calls)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: layer,
            start_ns: a,
            end_ns: b,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "harness", 0, 100),
            // Two overlapping pool children cover [10, 70) together.
            span(1, Some(0), "engine", 10, 50),
            span(2, Some(0), "engine", 30, 70),
            span(3, Some(1), "cache", 20, 25),
        ];
        let s = self_ns_by_layer(&spans);
        assert_eq!(s["harness"], 40);
        assert_eq!(s["engine"], 35 + 40);
        assert_eq!(s["cache"], 5);
    }

    #[test]
    fn nested_spans_link_to_their_parent() {
        let t = Tracer::new();
        t.span("perfbench", "outer", || t.span("engine", "inner", || ()));
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(totals_by_name(&spans)["inner"].calls, 1);
    }
}
