//! The traced pass's span store. Spans are recorded in memory from the
//! benchmark's side of each layer boundary (workload → phase → request →
//! layer call), each naming the span that caused it, and written once at
//! exit as chrome-trace JSON. Nothing here runs with tracing off.

use crate::json::write_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub type SpanId = u32;

/// No parent: a workload's root span.
pub const ROOT: SpanId = 0;

/// Keep at most this many request spans per phase (evenly strided): a
/// saturated in-process phase resolves millions of tickets, and the trace
/// must stay loadable. Counts always cover every request.
pub const MAX_REQUEST_SPANS: usize = 20_000;

pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    /// The layer (or `loadgen`) the time is charged to.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Request id shared by a request's due/sent/reply spans (0 = none).
    pub request: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Counts taken at the same boundaries as the spans.
    pub counts: BTreeMap<String, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the tracer was created — the trace's clock.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn add(
        &mut self,
        parent: SpanId,
        name: impl Into<String>,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        request: u64,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            layer,
            start_ns,
            end_ns: end_ns.max(start_ns),
            request,
        });
        id
    }

    /// Times `f` as a child span of `parent`.
    pub fn scope<T>(
        &mut self,
        parent: SpanId,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer, SpanId) -> T,
    ) -> T {
        let start = self.now();
        let id = self.add(parent, name, layer, start, start, 0);
        let out = f(self, id);
        let end = self.now();
        self.spans[id as usize - 1].end_ns = end;
        out
    }

    pub fn count(&mut self, name: &str, n: u64) {
        *self.counts.entry(name.to_string()).or_insert(0) += n;
    }

    /// Self time per span id: duration minus the part of the interval its
    /// child spans cover (children overlapping each other count once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len() + 1];
        for s in &self.spans {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
        self.spans
            .iter()
            .map(|s| {
                let kids = &mut children[s.id as usize];
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end_ns);
                    let b = b.clamp(cursor, s.end_ns);
                    covered += b - a;
                    cursor = cursor.max(b);
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Chrome-trace ("X" complete events, µs). One lane per layer keeps
    /// concurrent requests from nesting visually under each other; parent
    /// and self time travel in `args`.
    pub fn chrome_trace_json(&self) -> String {
        let selfs = self.self_times();
        let mut lanes: Vec<&'static str> = Vec::new();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let tid = match lanes.iter().position(|l| *l == s.layer) {
                Some(p) => p,
                None => {
                    lanes.push(s.layer);
                    lanes.len() - 1
                }
            };
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_str(&mut out, &s.name);
            out.push_str(",\"cat\":");
            write_str(&mut out, s.layer);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"self_us\":{:.3}}}}}",
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                tid,
                s.id,
                s.parent,
                s.request,
                selfs[i] as f64 / 1e3,
            );
        }
        out.push_str("],\"counts\":{");
        for (i, (k, v)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_str(&mut out, k);
            let _ = write!(out, ":{v}");
        }
        out.push_str("}}");
        out
    }
}

/// Indices to keep when thinning `n` request records to at most
/// [`MAX_REQUEST_SPANS`]: every `stride`-th one.
pub fn span_stride(n: usize) -> usize {
    n.div_ceil(MAX_REQUEST_SPANS).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let root = t.add(ROOT, "phase", "loadgen", 0, 100, 0);
        let a = t.add(root, "a", "x", 10, 40, 1);
        t.add(root, "b", "x", 30, 60, 1); // overlaps a by 10
        t.add(root, "late", "x", 90, 130, 2); // sticks out past the parent
        t.add(a, "inner", "y", 15, 20, 1);
        let selfs = t.self_times();
        // root: 100 - (10..60 = 50) - (90..100 = 10) = 40
        assert_eq!(selfs[root as usize - 1], 40);
        assert_eq!(selfs[a as usize - 1], 25);
        assert_eq!(selfs[4], 5, "a leaf's self time is its duration");
    }

    #[test]
    fn scope_nests_and_chrome_trace_loads() {
        let mut t = Tracer::new();
        let got = t.scope(ROOT, "outer \"q\"", "loadgen", |t, outer| {
            t.scope(outer, "inner", "engine", |_, inner| inner)
        });
        assert_eq!(got, 2);
        assert_eq!(t.spans[1].parent, 1);
        assert!(t.spans[0].end_ns >= t.spans[1].end_ns);
        t.count("requests", 3);
        t.count("requests", 2);
        let v = json::parse(&t.chrome_trace_json()).expect("valid JSON");
        let json::Value::Arr(events) = v.get("traceEvents").unwrap() else {
            panic!("traceEvents is an array");
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].get("name"),
            Some(&json::Value::Str("outer \"q\"".into()))
        );
        assert_eq!(events[1].num_at("args.parent"), Some(1.0));
        assert_eq!(v.num_at("counts.requests"), Some(5.0));
    }

    #[test]
    fn stride_caps_request_spans() {
        assert_eq!(span_stride(10), 1);
        assert_eq!(span_stride(MAX_REQUEST_SPANS), 1);
        assert_eq!(span_stride(MAX_REQUEST_SPANS + 1), 2);
        assert!(1_000_000 / span_stride(1_000_000) <= MAX_REQUEST_SPANS);
    }
}
