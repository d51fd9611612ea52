//! Span recording for the traced pass.
//!
//! Spans are recorded by the harness around its calls into each layer's
//! public API (spans inside the program are a later change), kept in
//! memory, and written out when the run ends. A span's self time is its
//! duration minus the part of that interval its children cover.

use crate::json::Value;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// The crate the spanned call belongs to (`bench` for harness glue).
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one request (or one batch) share this.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub type SpanId = usize;

/// Thread-safe in-memory span sink. One uncontended lock per begin/end
/// (~50 ns) against spans of 100 µs and up.
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
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        request_id: u64,
    ) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            request_id,
        });
        spans.len() - 1
    }

    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans.lock().expect("no span holder panics")[id].end_ns = end_ns;
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        request_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, layer, parent, request_id);
        let out = f();
        self.end(id);
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("no span holder panics").clone()
    }
}

/// Self time of every span: duration minus the union of its direct
/// children's intervals, clipped to the span (children on parallel
/// threads may overlap each other).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let lo = span.start_ns.max(spans[p].start_ns);
            let hi = span.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Sum of self times over `root` and everything below it.
pub fn subtree_self_ns(spans: &[Span], self_ns: &[u64], root: SpanId) -> u64 {
    // Parents always precede children in the sink, so one forward pass
    // marks the subtree.
    let mut inside = vec![false; spans.len()];
    inside[root] = true;
    let mut total = self_ns[root];
    for (i, span) in spans.iter().enumerate().skip(root + 1) {
        if span.parent.is_some_and(|p| inside[p]) {
            inside[i] = true;
            total += self_ns[i];
        }
    }
    total
}

/// Writes the spans as a JSON array to `path`, creating its directory.
///
/// # Errors
///
/// Returns the I/O error.
pub fn write_json(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    out.write_all(b"[\n")?;
    for (i, s) in spans.iter().enumerate() {
        let row = Value::obj(vec![
            ("id", Value::Num(i as f64)),
            ("name", Value::str(s.name)),
            ("layer", Value::str(s.layer)),
            ("start_ns", Value::Num(s.start_ns as f64)),
            ("end_ns", Value::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
            ),
            ("request_id", Value::Num(s.request_id as f64)),
        ]);
        out.write_all(row.encode().as_bytes())?;
        out.write_all(if i + 1 < spans.len() { b",\n" } else { b"\n" })?;
    }
    out.write_all(b"]\n")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            layer: "bench",
            start_ns,
            end_ns,
            parent,
            request_id: 0,
        }
    }

    #[test]
    fn sequential_children_leave_the_gaps_as_self_time() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(30, 70, Some(0)),
            span(35, 45, Some(2)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![40, 20, 30, 10]);
        // A sequential tree's self times sum to its root exactly.
        assert_eq!(subtree_self_ns(&spans, &own, 0), 100);
        assert_eq!(subtree_self_ns(&spans, &own, 2), 40);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(100, 200, None),
            span(110, 160, Some(0)),
            span(140, 190, Some(0)),
            // Runs past its parent: only the part inside counts.
            span(195, 250, Some(0)),
        ];
        let own = self_times_ns(&spans);
        // Union of children inside the root: [110,190) ∪ [195,200) = 85.
        assert_eq!(own[0], 15);
        assert_eq!(own[1], 50);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let tracer = Tracer::new();
        let root = tracer.begin("root", "bench", None, 7);
        let got = tracer.span("child", "core", Some(root), 7, || 41 + 1);
        tracer.end(root);
        assert_eq!(got, 42);
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let own = self_times_ns(&spans);
        assert_eq!(own[0] + own[1], spans[0].duration_ns());
    }
}
