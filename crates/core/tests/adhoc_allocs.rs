//! Heap allocations per ad-hoc statement, as exact, repeatable counts.
//!
//! An ad-hoc statement pays for its front end on every call: the lexer,
//! the parser, subquery folding and the planner all run before the plan
//! does, and a prepared statement skips all of them (the stored-procedure
//! model of the paper's §7.2). This test pins what each stage allocates for
//! the three statement shapes of the `adhoc_short` benchmark workload — a
//! primary-key lookup, a one-hop neighbour list and a path count — as
//! allocations per `parse_statement`, per `Database::execute` and per
//! `execute_prepared` of the same text. It also pins what parsing a
//! 768-row edge `INSERT` (the `mixed_rw` writer's statement) allocates.
//!
//! The pins are exact: a change that allocates less or more must move the
//! table below, and say why.
//!
//! Each `#[test]` runs on its own thread, and the counter is thread-local,
//! so other tests' allocations never leak in.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use grfusion::{Database, Value};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local counter bump, which neither allocates nor unwinds
// (`try_with` declines quietly while the thread's locals are torn down).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: same layout, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The vertex every shape starts from; it has `DEGREE` out-edges, each to
/// a vertex with `DEGREE` out-edges of its own.
const V: i64 = 7;
const DEGREE: i64 = 3;

/// The `adhoc_short` schema, on a small ring-of-fans graph: vertex `i`
/// follows `i+1..=i+DEGREE` (mod `n`).
fn fixture() -> Database {
    let n = 40i64;
    let db = Database::new();
    db.execute("CREATE TABLE v_src (id INTEGER PRIMARY KEY, name VARCHAR)")
        .unwrap();
    db.execute(
        "CREATE TABLE e_src (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER, \
         weight DOUBLE, sel INTEGER, label VARCHAR, since INTEGER)",
    )
    .unwrap();
    let vertexes = (0..n)
        .map(|id| vec![Value::Integer(id), Value::text(format!("user{id}"))])
        .collect();
    let edges = (0..n)
        .flat_map(|src| (1..=DEGREE).map(move |k| (src, (src + k) % n)))
        .enumerate()
        .map(|(id, (src, dst))| {
            vec![
                Value::Integer(id as i64),
                Value::Integer(src),
                Value::Integer(dst),
                Value::Double(1.5),
                Value::Integer(7),
                Value::text("A"),
                Value::Integer(2010),
            ]
        })
        .collect();
    db.bulk_insert("v_src", vertexes).unwrap();
    db.bulk_insert("e_src", edges).unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id, name = name) FROM v_src \
         EDGES(ID = id, FROM = src, TO = dst, weight = weight, sel = sel, \
         label = label, since = since) FROM e_src",
    )
    .unwrap();
    db
}

/// The three `adhoc_short` statement shapes, as that workload writes them.
fn shapes() -> [(&'static str, String); 3] {
    [
        (
            "pk_lookup",
            format!("SELECT name FROM v_src WHERE id = {V}"),
        ),
        (
            "neighbours",
            format!(
                "SELECT PS.EndVertex.Id FROM g.Paths PS WHERE PS.StartVertex.Id = {V} \
                 AND PS.Length = 1"
            ),
        ),
        (
            "path_count",
            format!(
                "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = {V} \
                 AND P.Length >= 1 AND P.Length <= 2"
            ),
        ),
    ]
}

/// Allocations `f` makes once warm, checked to repeat exactly over two
/// calls. The first call after loading is not counted: it also pays for
/// state the engine builds once (the planner's catalog view among them).
fn counted<T: PartialEq + std::fmt::Debug>(what: &str, mut f: impl FnMut() -> T) -> (u64, T) {
    f();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let before = ALLOCATIONS.with(Cell::get);
        let out = f();
        let spent = ALLOCATIONS.with(Cell::get) - before;
        runs.push((spent, out));
    }
    let second = runs.pop().unwrap();
    assert_eq!(runs[0], second, "{what}: count does not repeat");
    second
}

/// `(parse_statement, Database::execute, execute_prepared)` allocations of
/// each shape, in `shapes()` order. Debug builds also check every
/// operator's contract as the plan runs, which allocates.
const PINS: [(u64, u64, u64); 3] = if cfg!(debug_assertions) {
    [(6, 35, 17), (11, 57, 30), (17, 62, 22)]
} else {
    [(6, 24, 6), (11, 45, 18), (17, 50, 10)]
};

#[test]
fn adhoc_shapes_allocate_what_the_table_says() {
    let db = fixture();
    let mut seen = Vec::new();
    for (name, sql) in shapes() {
        let (parse, _) = counted(name, || grfusion_sql::parse_statement(&sql).is_ok());
        let (execute, rows) = counted(name, || db.execute(&sql).unwrap().rows);
        let query = db.prepare(&sql).unwrap();
        let (prepared, prepared_rows) =
            counted(name, || db.execute_prepared(&query, &[]).unwrap().rows);
        assert_eq!(rows, prepared_rows, "{name}: ad-hoc and prepared disagree");
        let expected_rows = match name {
            "pk_lookup" => vec![vec![Value::text(format!("user{V}"))]],
            "neighbours" => (1..=DEGREE).map(|k| vec![Value::Integer(V + k)]).collect(),
            _ => vec![vec![Value::Integer(DEGREE + DEGREE * DEGREE)]],
        };
        assert_eq!(rows, expected_rows, "{name}");
        println!("{name}: parse {parse}, execute {execute}, execute_prepared {prepared}");
        seen.push((parse, execute, prepared));
    }
    assert_eq!(
        seen, PINS,
        "(parse, execute, execute_prepared) allocations per shape moved"
    );
}

/// Parse allocations of the `mixed_rw` writer's statement: a 768-row
/// `INSERT INTO e_src VALUES (id, src, dst, 1.5, 7, 'A', 7), …`.
const INSERT_PIN: u64 = 1_547;

#[test]
fn a_768_row_insert_parses_in_the_pinned_allocations() {
    let mut sql = String::from("INSERT INTO e_src VALUES ");
    for id in 0..768 {
        if id > 0 {
            sql.push_str(", ");
        }
        sql.push_str(&format!(
            "({}, {}, {}, 1.5, 7, 'A', 7)",
            1_000_000 + id,
            id % 97,
            id % 89
        ));
    }
    let (parse, ok) = counted("insert", || grfusion_sql::parse_statement(&sql).is_ok());
    assert!(ok);
    println!("768-row INSERT: parse {parse}");
    assert_eq!(parse, INSERT_PIN, "768-row INSERT parse allocations moved");
}
