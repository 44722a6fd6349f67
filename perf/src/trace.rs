//! Spans recorded by the harness around its calls into the library, kept in
//! per-thread vectors and written out after the run.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;

/// One timed interval.  Spans of one operation share `op`; `parent` names the
/// span of the same operation that caused this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    /// (thread, sequence number on that thread).
    pub op: (u32, u64),
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A controller cycle driven by the harness, with what `run_cycle` returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleSpan {
    pub seq: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// How long after it was due (the previous cycle's end plus the update
    /// interval) this cycle started.
    pub late_ns: u64,
    pub runnable: u64,
    pub target: u64,
    /// `controller_wakes` gained since the previous cycle.
    pub wakes: u64,
}

/// Pushes the spans of one operation: the parent `op` and its children, cut
/// at `stamps` = [start, acquired, hold end, released, think end].
pub fn push_op(spans: &mut Vec<Span>, op: (u32, u64), acquire: &'static str, stamps: [u64; 5]) {
    let [start, acquired, held, released, end] = stamps;
    let child = |name, start_ns, end_ns| Span {
        name,
        parent: Some("op"),
        op,
        start_ns,
        end_ns,
    };
    spans.extend([
        Span {
            name: "op",
            parent: None,
            op,
            start_ns: start,
            end_ns: end,
        },
        child(acquire, start, acquired),
        child("hold", acquired, held),
        child("release", held, released),
        child("think", released, end),
    ]);
}

/// Self time per span name: each span's length minus the part of it that its
/// child spans (same operation, `parent` = its name) cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_op: BTreeMap<(u32, u64), Vec<&Span>> = BTreeMap::new();
    for span in spans {
        by_op.entry(span.op).or_default().push(span);
    }
    let mut totals = BTreeMap::new();
    for group in by_op.values() {
        for span in group {
            let mut children: Vec<(u64, u64)> = group
                .iter()
                .filter(|c| c.parent == Some(span.name) && !std::ptr::eq(**c, *span))
                .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
                .filter(|(start, end)| end > start)
                .collect();
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in children {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            *totals.entry(span.name).or_insert(0) += (span.end_ns - span.start_ns) - covered;
        }
    }
    totals
}

/// Writes the trace as one JSON object, one span per line.
pub fn write_json(
    path: &Path,
    workload: &str,
    spans: &[Span],
    cycles: &[CycleSpan],
) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut lines = Vec::with_capacity(spans.len() + cycles.len());
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        lines.push(format!(
            "{{\"name\": \"{}\", \"op\": \"{}:{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.name, s.op.0, s.op.1, s.start_ns, s.end_ns
        ));
    }
    for c in cycles {
        lines.push(format!(
            "{{\"name\": \"controller.cycle\", \"op\": \"controller:{}\", \"parent\": null, \"start_ns\": {}, \"end_ns\": {}, \"late_ns\": {}, \"runnable\": {}, \"target\": {}, \"wakes\": {}}}",
            c.seq, c.start_ns, c.end_ns, c.late_ns, c.runnable, c.target, c.wakes
        ));
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
    writeln!(out, "{}", lines.join(",\n"))?;
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut spans = Vec::new();
        push_op(&mut spans, (0, 64), "acquire", [100, 130, 230, 240, 600]);
        let selfs = self_times(&spans);
        // The children tile the op exactly, so the op itself keeps nothing.
        assert_eq!(selfs["op"], 0);
        assert_eq!(selfs["acquire"], 30);
        assert_eq!(selfs["hold"], 100);
        assert_eq!(selfs["release"], 10);
        assert_eq!(selfs["think"], 360);
    }

    #[test]
    fn self_time_counts_gaps_and_merges_overlap() {
        let span = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            op: (1, 0),
            start_ns,
            end_ns,
        };
        let spans = [
            span("op", None, 0, 100),
            // Two overlapping children cover 10..50; one sticks out past the end.
            span("a", Some("op"), 10, 40),
            span("b", Some("op"), 30, 50),
            span("c", Some("op"), 90, 120),
            // Another operation's child never counts against this parent.
            Span {
                op: (2, 0),
                ..span("a", Some("op"), 0, 100)
            },
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs["op"], 100 - 40 - 10);
        assert_eq!(selfs["a"], 30 + 100);
        assert_eq!(selfs["b"], 20);
        assert_eq!(selfs["c"], 30);
    }
}
