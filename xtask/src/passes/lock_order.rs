//! Pass 1: static lock-order conformance (zero-tolerance).
//!
//! The engine's documented discipline (see `crates/core/src/db.rs` and
//! DESIGN.md): `Database.inner` — the `DbInner` mutex — is the one engine
//! lock. It owns every live table, topology and setting by value, so those
//! need no lock of their own, and it is the *outermost* lock; the server's
//! tenant registry is a leaf never held across a call into the engine.
//! Ranks ascend inward; the table is [`CLASSES`], and this pass is the only
//! place it is kept:
//!
//! | rank | lock             | receiver ident |
//! |------|------------------|----------------|
//! | 0    | `DbInner`        | `inner`        |
//! | 1    | `TenantRegistry` | `tenants`      |
//!
//! Two rules:
//!
//! * **Nesting.** Within each function we replay acquisitions in source
//!   order: a `let g = <chain>.lock();` (or `let g = lock(&<chain>);`, the
//!   poison-tolerant helper form) binding holds its lock until its block
//!   closes or `drop(g)`; any other `.lock()`/`.read()`/`.write()` call is
//!   a transient acquisition checked but not recorded. A parameter typed
//!   `&DbInner`/`&mut DbInner` means rank 0 is held on entry (the caller
//!   passed the guard's interior). Acquiring a rank ≤ any held rank is a
//!   violation — that shape inverts the documented order somewhere, or
//!   re-locks the same class (instant deadlock).
//! * **No way back to the lock.** A function whose signature takes a
//!   `DbInner` together with `self` or a `Database` holds the engine lock
//!   and can reach what locks it, so it is a finding by its shape alone.
//!   Code under the lock runs as `DbInner` methods and free functions over
//!   `&mut DbInner`, which cannot re-lock it.
//!
//! This is intra-function and heuristic by design.

use crate::findings::Finding;
use crate::model::{functions, ident_before, next_nonspace, SourceFile, SourceModel};
use crate::passes::Pass;

/// Receiver ident → (rank, class name), in rank order. Idents not listed
/// are locks outside the documented order (caches, stdin) and are ignored.
pub const CLASSES: &[(&str, u8, &str)] = &[
    ("inner", 0, "DbInner"),
    // grfusion-server's tenant admission registry: a strict leaf, never
    // held across a call into the engine.
    ("tenants", 1, "TenantRegistry"),
];

fn classify(ident: &str) -> Option<(u8, &'static str)> {
    CLASSES
        .iter()
        .find(|(name, _, _)| *name == ident)
        .map(|&(_, rank, class)| (rank, class))
}

pub struct LockOrder;

impl Pass for LockOrder {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn description(&self) -> &'static str {
        "DbInner-outside / TenantRegistry-leaf nesting, no DbInner beside a Database (zero tolerance)"
    }

    fn run(&self, model: &SourceModel) -> Vec<Finding> {
        let mut out = Vec::new();
        for file in &model.files {
            for f in functions(&file.code) {
                analyze_fn(file, &f, &mut out);
            }
        }
        out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        out
    }
}

/// One acquisition or release event, ordered by source offset.
enum Event {
    /// (rank, class, binding name if the guard stays live, site offset)
    Acquire(u8, &'static str, Option<String>, usize),
    /// `drop(<ident>)`
    Drop(String),
}

struct HeldLock {
    rank: u8,
    class: &'static str,
    name: Option<String>,
    depth: i32,
}

/// The "no way back to the lock" rule: `DbInner` beside `self` or a
/// `Database` in one signature.
fn check_signature(file: &SourceFile, f: &crate::model::FnSpan, out: &mut Vec<Finding>) {
    let sig = &file.code[f.sig.clone()];
    let has = |word| crate::model::word_offsets(sig, word).next().is_some();
    if !has("DbInner") {
        return;
    }
    let Some(beside) = ["self", "Database"].into_iter().find(|w| has(w)) else {
        return;
    };
    out.push(Finding {
        file: file.rel.clone(),
        line: file.line_of(f.fn_offset),
        key: file.rel.clone(),
        message: format!(
            "lock-order violation in fn `{}`: takes `DbInner` beside `{beside}`; code holding \
             the engine lock must not reach the `Database` that locks it",
            f.name
        ),
    });
}

fn analyze_fn(file: &SourceFile, f: &crate::model::FnSpan, out: &mut Vec<Finding>) {
    check_signature(file, f, out);
    let code = &file.code;
    let mut events: Vec<(usize, Event)> = Vec::new();

    // Lock sites: `.lock(` / `.read(` / `.write(` whose receiver ident is a
    // classified lock field.
    for method in [".lock(", ".read(", ".write("] {
        let mut from = f.body.start;
        while let Some(i) = code[from..f.body.end].find(method) {
            let at = from + i;
            from = at + method.len();
            let Some((_, recv)) = ident_before(code, at) else {
                continue;
            };
            let Some((rank, class)) = classify(recv) else {
                continue;
            };
            let open = at + method.len() - 1;
            let Some(close) = matching_paren(code, open) else {
                continue;
            };
            // Guard stays live iff the statement is `let <name> = … .lock();`
            let name = match next_nonspace(code, close + 1) {
                Some((_, b';')) => let_binding_name(code, at),
                _ => None,
            };
            events.push((at, Event::Acquire(rank, class, name, at)));
        }
    }

    // The poison-tolerant helper form: `lock(&<chain>)`, receiver ident
    // last in the argument.
    for at in crate::model::word_offsets(&code[..f.body.end], "lock").collect::<Vec<_>>() {
        if at < f.body.start || code[..at].trim_end().ends_with('.') {
            continue;
        }
        let Some((open, b'(')) = next_nonspace(code, at + 4) else {
            continue;
        };
        if !matches!(next_nonspace(code, open + 1), Some((_, b'&'))) {
            continue;
        }
        let Some(close) = matching_paren(code, open) else {
            continue;
        };
        let Some((rank, class)) = ident_before(code, close).and_then(|(_, recv)| classify(recv))
        else {
            continue;
        };
        let name = match next_nonspace(code, close + 1) {
            Some((_, b';')) => let_binding_name(code, at),
            _ => None,
        };
        events.push((at, Event::Acquire(rank, class, name, at)));
    }

    // Explicit guard releases: `drop(<ident>)`.
    for at in crate::model::word_offsets(&code[..f.body.end], "drop").collect::<Vec<_>>() {
        if at < f.body.start {
            continue;
        }
        let Some((p, b'(')) = next_nonspace(code, at + 4) else {
            continue;
        };
        let Some((start, b)) = next_nonspace(code, p + 1) else {
            continue;
        };
        if !crate::model::is_ident_byte(b) {
            continue;
        }
        let bytes = code.as_bytes();
        let mut j = start;
        while j < f.body.end && crate::model::is_ident_byte(bytes[j]) {
            j += 1;
        }
        if matches!(next_nonspace(code, j), Some((_, b')'))) {
            events.push((at, Event::Drop(code[start..j].to_string())));
        }
    }

    events.sort_by_key(|(at, _)| *at);

    // Parameters typed `&DbInner` / `&mut DbInner` mean the caller already
    // holds rank 0.
    let mut held: Vec<HeldLock> = Vec::new();
    if crate::model::word_offsets(&code[f.sig.clone()], "DbInner").next().is_some() {
        held.push(HeldLock {
            rank: 0,
            class: "DbInner",
            name: None,
            depth: -1, // never popped: live for the whole function
        });
    }

    // Replay the body linearly, interleaving brace tracking with events.
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    let mut ev = events.iter().peekable();
    for i in f.body.clone() {
        while let Some((at, event)) = ev.peek() {
            if *at > i {
                break;
            }
            match event {
                Event::Acquire(rank, class, name, site) => {
                    if let Some(worst) = held.iter().filter(|h| h.rank >= *rank).max_by_key(|h| h.rank)
                    {
                        let order: Vec<&str> = CLASSES.iter().map(|c| c.2).collect();
                        out.push(Finding {
                            file: file.rel.clone(),
                            line: file.line_of(*site),
                            key: file.rel.clone(),
                            message: format!(
                                "lock-order violation in fn `{}`: acquires `{}` (rank {}) while holding `{}` (rank {}); documented order is {}",
                                f.name, class, rank, worst.class, worst.rank, order.join(" -> ")
                            ),
                        });
                    }
                    if let Some(name) = name {
                        held.push(HeldLock {
                            rank: *rank,
                            class,
                            name: Some(name.clone()),
                            depth,
                        });
                    }
                }
                Event::Drop(ident) => {
                    if let Some(pos) = held
                        .iter()
                        .rposition(|h| h.name.as_deref() == Some(ident.as_str()))
                    {
                        held.remove(pos);
                    }
                }
            }
            ev.next();
        }
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                held.retain(|h| h.depth < depth);
                depth -= 1;
            }
            _ => {}
        }
    }
}

/// If the statement containing the chain ending at `chain_at` is a `let`
/// binding, return the bound name. Scans back to the nearest statement
/// boundary (`;`, `{`, `}`) and reads forward: `let [mut] <name> =`.
fn let_binding_name(code: &str, chain_at: usize) -> Option<String> {
    let bytes = code.as_bytes();
    let mut j = chain_at;
    while j > 0 && !matches!(bytes[j - 1], b';' | b'{' | b'}') {
        j -= 1;
    }
    let (at, _) = next_nonspace(code, j)?;
    if !crate::model::is_word_at(code, at, "let") {
        return None;
    }
    let (mut k, _) = next_nonspace(code, at + 3)?;
    if crate::model::is_word_at(code, k, "mut") {
        k = next_nonspace(code, k + 3)?.0;
    }
    let start = k;
    while k < bytes.len() && crate::model::is_ident_byte(bytes[k]) {
        k += 1;
    }
    (k > start).then(|| code[start..k].to_string())
}

/// Offset of the `)` matching the `(` at `open`.
fn matching_paren(code: &str, open: usize) -> Option<usize> {
    let bytes = code.as_bytes();
    let mut depth = 0i32;
    for (i, &c) in bytes.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn scan(src: &str) -> Vec<Finding> {
        let model = SourceModel {
            files: vec![SourceFile::from_source(
                "crates/t/src/lib.rs".into(),
                "t".into(),
                src.into(),
            )],
        };
        LockOrder.run(&model)
    }

    #[test]
    fn conforming_order_is_clean() {
        let src = "fn admit(&self) {\n    let mut inner = self.inner.lock();\n    self.tenants.lock().clear();\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn inverted_order_is_flagged() {
        let src = "fn bad(&self) {\n    let t = self.tenants.lock();\n    let mut inner = self.inner.lock();\n}\n";
        let found = scan(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("`DbInner` (rank 0)"));
        assert!(found[0].message.contains("`TenantRegistry` (rank 1)"));
        assert!(found[0]
            .message
            .ends_with("documented order is DbInner -> TenantRegistry"));
    }

    #[test]
    fn helper_form_is_an_acquisition() {
        // `lock(&self.tenants)` holds the registry like `.lock()` does.
        let src = "fn bad(&self) {\n    let t = lock(&self.tenants);\n    self.inner.lock().clear();\n}\nfn ok(&self) {\n    lock(&self.tenants).in_flight;\n    let inner = self.inner.lock();\n}\n";
        let found = scan(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 3);
        assert!(found[0].message.contains("fn `bad`"));
    }

    #[test]
    fn scope_exit_and_drop_release() {
        // Block scope releases `t`; drop releases `t2`.
        let src = "fn ok(&self) {\n    {\n        let t = self.tenants.lock();\n    }\n    let inner = self.inner.lock();\n    drop(inner);\n    let t2 = self.tenants.lock();\n    drop(t2);\n    let inner = self.inner.lock();\n}\n";
        assert!(scan(src).is_empty());
    }

    #[test]
    fn same_class_recursion_is_flagged() {
        let src = "fn twice(&self) {\n    let a = self.inner.lock();\n    let b = self.inner.lock();\n}\n";
        let found = scan(src);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("rank 0) while holding `DbInner`"));
    }

    #[test]
    fn dbinner_param_implies_held() {
        let src = "fn admit(inner: &mut DbInner, reg: &Registry) {\n    let t = reg.tenants.lock();\n}\nfn bad_helper(inner: &mut DbInner, conn: &Conn) {\n    let g = conn.inner.lock();\n}\n";
        let found = scan(src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 5);
        assert!(found[0].message.contains("fn `bad_helper`"));
    }

    #[test]
    fn dbinner_beside_self_or_database_is_flagged() {
        let src = "fn read_locked(&self, inner: &mut DbInner) {}\n\
                   fn run_dml(db: &Database, inner: &mut DbInner) {}\n\
                   fn execute(&mut self, stmt: &Statement) {}\n\
                   fn ddl(inner: &mut DbInner, f: impl FnOnce(&mut DbInner)) {}\n";
        let found = scan(src);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!((found[0].line, found[1].line), (1, 2));
        assert_eq!(
            found[0].message,
            "lock-order violation in fn `read_locked`: takes `DbInner` beside `self`; code \
             holding the engine lock must not reach the `Database` that locks it"
        );
        assert!(found[1]
            .message
            .contains("fn `run_dml`: takes `DbInner` beside `Database`"));
    }

    #[test]
    fn transient_acquisitions_checked_not_held() {
        let src = "fn peek(&self) -> u64 {\n    self.tenants.lock().in_flight;\n    let inner = self.inner.lock();\n    0\n}\n";
        assert!(scan(src).is_empty());
    }
}
