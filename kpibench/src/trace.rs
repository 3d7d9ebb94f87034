//! In-memory spans for the traced run.
//!
//! A span is one timed call into a layer: its name, start, end, parent
//! span and the request it served. Spans stay in memory until the run
//! ends and are then written out in one file. A span's self time is its
//! duration minus the part of its interval that its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `proto.parse_request`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// The span this call was made from, if any.
    pub parent: Option<SpanId>,
    /// The request the call served.
    pub request: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one clock origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        span.duration_ns()
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders every span, with its self time, as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let self_ns = self_times(&self.spans, 0);
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"self_ns\":{own}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )
            .expect("writing to a String");
        }
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval. `spans`
/// is a run of a tracer's spans whose first one has id `first`; parents
/// outside the run are ignored.
pub fn self_times(spans: &[Span], first: SpanId) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(first)) {
            if let Some(kids) = children.get_mut(p) {
                kids.push((s.start_ns, s.end_ns));
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
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        // request [0,100): proto [10,20), pipeline [30,90) which has
        // features [35,60) and an overlapping compiled [50,70).
        let spans = vec![
            span("request", 0, 100, None),
            span("proto", 10, 20, Some(0)),
            span("pipeline", 30, 90, Some(0)),
            span("features", 35, 60, Some(2)),
            span("compiled", 50, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans, 0), vec![30, 10, 25, 25, 20]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("parent", 10, 20, None),
            span("early", 0, 15, Some(0)),
            span("late", 18, 40, Some(0)),
        ];
        assert_eq!(self_times(&spans, 0), vec![3, 15, 22]);
    }

    #[test]
    fn self_times_of_a_tree_add_up_to_the_root() {
        let spans = vec![
            span("root", 0, 1000, None),
            span("a", 0, 400, Some(0)),
            span("b", 400, 900, Some(0)),
            span("b1", 450, 600, Some(2)),
            span("b2", 600, 880, Some(2)),
        ];
        let total: u64 = self_times(&spans, 0).iter().sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn a_run_of_spans_is_read_relative_to_its_first_id() {
        // The same tree as above, recorded after 10 unrelated spans.
        let spans = vec![
            span("request", 0, 100, None),
            span("proto", 10, 20, Some(10)),
            span("pipeline", 30, 90, Some(10)),
            span("features", 35, 60, Some(12)),
            span("outside", 40, 50, Some(3)),
        ];
        assert_eq!(self_times(&spans, 10), vec![30, 10, 35, 25, 10]);
    }

    #[test]
    fn json_lines_carry_self_time() {
        let mut t = Tracer::new();
        let root = t.begin("root", None, 7);
        t.time("child", Some(root), 7, || ());
        t.end(root);
        let out = t.to_json_lines();
        assert_eq!(out.lines().count(), 2);
        assert!(out.contains("\"name\":\"child\""));
        assert!(out.contains("\"parent\":0"));
        assert!(out.contains("\"request\":7"));
    }
}
