//! Pass 4: hot-loop allocation census (per-file ratchet).
//!
//! Operator `next_batch()` methods and the graph traversal kernels are
//! the engine's innermost loops; an allocation per iteration there
//! dominates wall-clock long before anything else does. The pass flags
//! allocating calls inside loop bodies of:
//!
//! * any `fn next` / `fn next_batch` body, in every crate (iterators and
//!   the operator surface), and any `fn matches` / `fn truth` body (the
//!   per-row predicate evaluation every filter, scan and DML statement
//!   runs), and
//! * *every* function in the relational operators
//!   (`crates/core/src/spine.rs`: their per-tuple loops also live in
//!   build helpers), in the graph operators and the path operator's probe
//!   loop (`crates/core/src/exec.rs`), in the traversal kernels
//!   (`crates/graph/src/traverse.rs`, `crates/graph/src/dijkstra.rs`,
//!   `crates/graph/src/p2p.rs`, `crates/graph/src/search.rs`) and in the
//!   DML statement bodies (`crates/core/src/dml.rs`), whose loops run once
//!   per inserted, updated or deleted row under the engine lock, and in
//!   the SQL lexer (`crates/sql/src/lexer.rs`), whose loops run once per
//!   character of every ad-hoc statement: a token borrows the source, so
//!   only unescaping a `''` may copy it.
//!
//! Deliberate allocations (building the output value itself, amortized
//! reservations) carry `// alloc-ok: reason` on the same line and are
//! exempt. Everything else ratchets per file.

use std::collections::BTreeSet;

use crate::findings::Finding;
use crate::model::{functions, loop_bodies, SourceModel};
use crate::passes::Pass;

/// Allocating call patterns (matched in stripped code).
const ALLOC: &[&str] = &[
    "Vec::new(",
    "String::new(",
    "vec![",
    "Box::new(",
    "format!(",
    ".to_string(",
    ".to_vec(",
    ".to_owned(",
    ".clone(",
];

/// Files where *every* function body is considered hot.
const HOT_FILES: &[&str] = &[
    "crates/core/src/spine.rs",
    // The graph operators and the path operator's probe loop: only the
    // path a probe emits may allocate.
    "crates/core/src/exec.rs",
    "crates/graph/src/traverse.rs",
    "crates/graph/src/dijkstra.rs",
    "crates/graph/src/p2p.rs",
    "crates/graph/src/search.rs",
    // Per-row statement bodies: a `String`/`Row` clone per victim is what
    // the writer holds the engine lock for.
    "crates/core/src/dml.rs",
    // Per-character loops of every ad-hoc statement: tokens borrow the
    // source text.
    "crates/sql/src/lexer.rs",
];

const HOT_FNS: &[&str] = &["next", "next_batch", "matches", "truth"];

pub const MARKER: &str = "alloc-ok:";

pub struct HotLoopAlloc;

impl Pass for HotLoopAlloc {
    fn name(&self) -> &'static str {
        "hot-loop-alloc"
    }

    fn description(&self) -> &'static str {
        "per-file ratchet of allocations inside next()-loop bodies and traversal kernels"
    }

    fn run(&self, model: &SourceModel) -> Vec<Finding> {
        let mut out = Vec::new();
        for file in &model.files {
            let whole_file_hot = HOT_FILES.iter().any(|h| file.rel.ends_with(h));
            // Collect hot loop-body ranges, dedup sites by offset (nested
            // loops overlap).
            let mut sites: BTreeSet<(usize, &'static str)> = BTreeSet::new();
            for f in functions(&file.code) {
                if !(whole_file_hot || HOT_FNS.contains(&f.name.as_str())) {
                    continue;
                }
                for body in loop_bodies(&file.code, f.body.clone()) {
                    for pat in ALLOC {
                        let mut from = body.start;
                        while let Some(i) = file.code[from..body.end].find(pat) {
                            let at = from + i;
                            from = at + pat.len();
                            sites.insert((at, pat));
                        }
                    }
                }
            }
            for (at, pat) in sites {
                let line = file.line_of(at);
                if file.raw_line(line).contains(MARKER) {
                    continue;
                }
                out.push(Finding {
                    file: file.rel.clone(),
                    line,
                    key: file.rel.clone(),
                    message: format!(
                        "allocation `{}` in hot loop — hoist it out or audit with `// {MARKER} <reason>`",
                        pat.trim_start_matches('.').trim_end_matches(['(', '['])
                    ),
                });
            }
        }
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{SourceFile, SourceModel};

    fn scan(rel: &str, src: &str) -> Vec<Finding> {
        let model = SourceModel {
            files: vec![SourceFile::from_source(rel.into(), "t".into(), src.into())],
        };
        HotLoopAlloc.run(&model)
    }

    #[test]
    fn alloc_in_next_loop_flagged() {
        let src = "fn next(&mut self) -> Option<Row> {\n    while let Some(r) = self.child.next() {\n        let key = r.key.to_string();\n        if key.is_empty() { continue; }\n    }\n    None\n}\n";
        let found = scan("crates/core/src/exec.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("`to_string`"));
    }

    #[test]
    fn cold_functions_and_markers_exempt() {
        let src = "fn open(&mut self) {\n    for t in &self.tables { self.names.push(t.clone()); }\n}\nfn next(&mut self) -> Option<Row> {\n    loop {\n        let row = self.buf.clone(); // alloc-ok: handing the row out\n        return Some(row);\n    }\n}\n";
        assert!(scan("crates/core/src/planner.rs", src).is_empty());
        // The graph operators' file is hot in every function.
        let found = scan("crates/core/src/exec.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn traversal_kernels_hot_everywhere() {
        let src = "fn expand(&mut self) {\n    for v in frontier {\n        self.paths.push(v.path.to_vec());\n    }\n}\n";
        let found = scan("crates/graph/src/traverse.rs", src);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("`to_vec`"));
    }

    #[test]
    fn lexer_hot_everywhere() {
        let src = "fn next_token(&mut self) {\n    while let Some(&b) = bytes.get(i) {\n        let word = text.to_string();\n    }\n}\n";
        let found = scan("crates/sql/src/lexer.rs", src);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("`to_string`"));
        assert!(scan("crates/sql/src/parser.rs", src).is_empty());
    }

    #[test]
    fn alloc_outside_loop_in_next_ok() {
        let src = "fn next(&mut self) -> Option<Row> {\n    let out = Vec::new();\n    while go() { step(); }\n    Some(out)\n}\n";
        assert!(scan("crates/core/src/exec.rs", src).is_empty());
    }
}
