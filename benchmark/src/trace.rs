//! An in-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into
//! a layer: a name, a start and end on a monotonic clock, the enclosing
//! span, and the op the span belongs to. They stay in memory until the
//! run ends and are then written out as tab-separated lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `logic.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The recorder: spans plus the stack of currently open ones.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open span; returns its index.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close in LIFO order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Open the root span of op number `op`.
    pub fn begin_op(&mut self, op: u64) -> usize {
        assert!(self.open.is_empty(), "an op starts with no open span");
        self.op = op;
        self.enter("op")
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as `op name start_ns end_ns parent` lines.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tname\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(out, "{}\t{}\t{}\t{}\t{parent}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may nest
/// further, overlap one another (work on parallel threads), or stick out
/// of the parent's interval; only the covered part inside the parent is
/// subtracted, and overlapping children are not subtracted twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_default() += t as f64 / 1e6;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 10, 25, None)]), vec![15]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) ⊃ child [10,60) ⊃ grandchild [20,30)
        let spans =
            [span("root", 0, 100, None), span("c", 10, 60, Some(0)), span("g", 20, 30, Some(1))];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["root"], 50.0 / 1e6);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two children on parallel threads: [10,50) and [30,70) cover 60.
        let spans =
            [span("root", 0, 100, None), span("a", 10, 50, Some(0)), span("b", 30, 70, Some(0))];
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
        // A child contained in a sibling adds nothing.
        let spans =
            [span("root", 0, 100, None), span("a", 10, 80, Some(0)), span("b", 20, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans =
            [span("root", 10, 50, None), span("a", 0, 20, Some(0)), span("b", 40, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 20);
        // A child entirely outside covers nothing.
        let spans = [span("root", 10, 50, None), span("a", 60, 90, Some(0))];
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn recorder_nests_spans_and_tags_ops() {
        let mut t = Tracer::new();
        let root = t.begin_op(3);
        let x = t.span("inner", || 7);
        t.exit(root);
        assert_eq!(x, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let times = self_times(spans);
        assert_eq!(times[0] + times[1], spans[0].duration_ns());
    }
}
