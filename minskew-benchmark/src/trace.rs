//! In-memory spans for the traced run: one span per call into a layer,
//! recorded from the benchmark's side of that call, written out as JSONL
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` is the `id` of the enclosing span (`0` for a
/// root); spans of one request share `req`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub req: u64,
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder. Spans are kept in memory; nothing is written until
/// [`Tracer::write_jsonl`].
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

    /// Opens a span that children can name as their parent; close it with
    /// [`Tracer::close`].
    pub fn open(&mut self, req: u64, parent: u64, name: &'static str) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    }

    pub fn close(&mut self, id: u64) {
        let end = self.now_ns();
        self.spans[(id - 1) as usize].end_ns = end;
    }

    /// Runs `f` inside a leaf span.
    pub fn span<T>(
        &mut self,
        req: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(req, parent, name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, grouped by span name.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            out.entry(span.name).or_default().push(self_ns as f64);
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"req\":{},\"id\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req,
                s.id,
                s.parent,
                crate::json::string(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Runs `f` inside a root span when there is a tracer, and plainly when
/// there is none.
pub fn span_if<T>(tracer: Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(0, 0, name, f),
        None => f(),
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Overlapping children are counted once, and a child
/// reaching outside its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.clamp(reach, s.end_ns);
                let end = end.clamp(s.start_ns, s.end_ns);
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

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            req: 1,
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(1, 0, 0, 100),
            // Two children overlapping on [30, 40): they cover [10, 60).
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
            // A child nested inside another child covers nothing new.
            span(4, 1, 15, 20),
            // A child running past its parent counts only up to 100.
            span(5, 1, 90, 130),
            // A grandchild is its child's business, not the root's.
            span(6, 2, 12, 18),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 50 - 10, 30 - 6, 30, 5, 40, 6]
        );
    }

    #[test]
    fn tracer_nests_and_groups_by_name() {
        let mut t = Tracer::new();
        let root = t.open(7, 0, "root");
        t.span(7, root, "leaf", || std::hint::black_box(3));
        t.close(root);
        let by_name = t.self_times_by_name();
        assert_eq!(by_name["root"].len(), 1);
        assert_eq!(by_name["leaf"].len(), 1);
        assert_eq!(t.spans()[1].parent, root);
        let whole = t.spans()[0].duration_ns() as f64;
        assert!(by_name["root"][0] + by_name["leaf"][0] <= whole + 1.0);
    }
}
