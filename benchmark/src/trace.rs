//! The benchmark's own span recorder. Spans are recorded around calls into
//! each layer's public functions, kept in a `Vec` per thread, and written
//! out only after the round ends. Spans inside the engine and the server
//! are a later change.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use grfusion::QueryMetrics;

use crate::json::Json;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Spans of one request share this identifier.
    pub request_id: u64,
}

/// One thread's span buffer. All recorders of a round share `origin`, so
/// their timestamps are comparable.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A clock reading taken elsewhere, on this recorder's time axis.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request_id: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Turn the per-operator inclusive times of an instrumented query into
    /// spans under `parent`. `QueryMetrics` carries durations, not clock
    /// readings, so siblings are laid end to end from their parent's start:
    /// durations and nesting are exact, start offsets are nominal.
    pub fn push_operators(&mut self, metrics: &QueryMetrics, parent: u32, request_id: u64) {
        let base = match self.spans.get(parent as usize) {
            Some(p) => p.start_ns,
            None => return,
        };
        // (depth, span index, where the next child starts)
        let mut stack: Vec<(usize, u32, u64)> = vec![(usize::MAX, parent, base)];
        for node in &metrics.nodes {
            while stack.len() > 1 && stack.last().is_some_and(|top| top.0 >= node.depth) {
                stack.pop();
            }
            let top = stack
                .last_mut()
                .expect("the enclosing span stays on the stack");
            let (start, up) = (top.2, top.1);
            let end = start + node.time_ns;
            top.2 = end;
            let id = self.push(operator_span_name(&node.label), start, end, up, request_id);
            stack.push((node.depth, id, start));
        }
    }
}

/// The operator kinds the per-layer block names; anything else is `Other`.
pub const OPERATOR_KINDS: [&str; 8] = [
    "TableScan",
    "Filter",
    "Project",
    "IndexJoin",
    "NestedLoopJoin",
    "Aggregate",
    "PathScan",
    "Limit",
];

const OPERATOR_SPANS: [&str; 8] = [
    "exec.TableScan",
    "exec.Filter",
    "exec.Project",
    "exec.IndexJoin",
    "exec.NestedLoopJoin",
    "exec.Aggregate",
    "exec.PathScan",
    "exec.Limit",
];

/// `TableScan(fact)` → `exec.TableScan`.
pub fn operator_span_name(label: &str) -> &'static str {
    let kind = label.split(['(', ' ']).next().unwrap_or("");
    OPERATOR_KINDS
        .iter()
        .position(|k| *k == kind)
        .map_or("exec.Other", |i| OPERATOR_SPANS[i])
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (children clipped to the parent, overlaps
/// counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(&mut children)
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
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span count, inclusive time and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

/// Merge per-thread buffers into one list, re-basing parent indices.
pub fn merge(buffers: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::with_capacity(buffers.iter().map(Vec::len).sum());
    for buf in buffers {
        let base = out.len() as u32;
        out.extend(buf.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
    out
}

/// One JSON object per line: `name, start_ns, end_ns, parent, request_id`.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            Json::Null
        } else {
            Json::from(s.parent as u64)
        };
        let line = Json::obj()
            .with("name", s.name)
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns)
            .with("parent", parent)
            .with("request_id", s.request_id);
        writeln!(w, "{}", line.render())?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_with_nested_and_sibling_children() {
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),   // sibling 1
            span("b", 50, 70, 0),   // sibling 2
            span("a.x", 15, 25, 1), // nested under a
            span("c", 60, 80, 0),   // overlaps b: 50..80 is covered once
            span("d", 90, 130, 0),  // clipped to the parent's end
        ];
        let selfs = self_times(&spans);
        // root: 100 - (30 + 30 + 10) = 30
        assert_eq!(selfs[0], 30);
        assert_eq!(selfs[1], 20); // a: 30 - 10
        assert_eq!(selfs[2], 20);
        assert_eq!(selfs[3], 10);
        let by_name = totals_by_name(&spans);
        assert_eq!(by_name["a"].total_ns, 30);
        assert_eq!(by_name["a"].self_ns, 20);
        assert_eq!(by_name["root"].count, 1);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("r", 0, 10, NO_PARENT), span("k", 1, 2, 0)];
        let b = vec![span("r", 0, 10, NO_PARENT), span("k", 3, 4, 0)];
        let all = merge(vec![a, b]);
        assert_eq!(all[1].parent, 0);
        assert_eq!(all[2].parent, NO_PARENT);
        assert_eq!(all[3].parent, 2);
    }

    #[test]
    fn operator_labels_map_to_span_names() {
        assert_eq!(operator_span_name("TableScan(fact)"), "exec.TableScan");
        assert_eq!(operator_span_name("Filter"), "exec.Filter");
        assert_eq!(
            operator_span_name("PathScan(g, Auto, len 1..=2)"),
            "exec.PathScan"
        );
        assert_eq!(operator_span_name("Sort(1 keys)"), "exec.Other");
    }
}
