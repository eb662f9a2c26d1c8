//! Heap allocations per statement on the path pipeline, as an exact,
//! repeatable count.
//!
//! A path scan used to pay four allocations for every path it produced (the
//! view-name `String`, two id vectors, the `Arc`), BFS two more per
//! expanded hop (the forked prefix), and `COUNT(P)` four again to deep-copy
//! a value the row already held. Now a scan that only counts materializes
//! nothing — its allocations do not depend on how many paths it counts —
//! and a path that is emitted costs two (one id buffer, the `Arc`) and
//! nothing per hop. This test pins both, on a fixture of `legs` two-hop
//! legs out of one hub (`hub -> leaf_i -> tail_i`), so the anchored scan
//! finds `legs` one-hop and `legs` two-hop paths.
//!
//! A running `SUM` bound is per-prefix state beside the traversal's own
//! (one running sum per bound and path position), so it adds nothing per
//! hop either; neither does k-shortest, whose prefixes are arena nodes.
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

/// Allocations a statement may cost whatever it finds: the operator tree
/// (one box per node, plus its contract and label in debug builds), the
/// bound filter, the seed list, the traversal's stacks, and the doublings
/// of the few vectors that grow with the result (the batch arena, the
/// result vector, BFS's 20-byte-per-path arena) up to the largest fixture.
const C: u64 = 64;

/// `hub(0) -> leaf_i -> tail_i` for `i` in `1..=legs`. Hub-to-leaf edges
/// and leaves weigh 1 (`w`, `c`), leaf-to-tail edges and tails 10, the hub
/// 0: a running sum bounded below 5 keeps every one-hop path and prunes
/// every two-hop one.
fn fixture(legs: i64) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY, c DOUBLE)")
        .unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let weight = |id: i64| match id {
        0 => Value::Double(0.0),
        id if id <= legs => Value::Double(1.0),
        _ => Value::Double(10.0),
    };
    let vertexes = (0..=2 * legs)
        .map(|id| vec![Value::Integer(id), weight(id)])
        .collect();
    let edges = (1..=legs)
        .flat_map(|i| [(i, 0, i), (legs + i, i, legs + i)])
        .map(|(id, a, b)| {
            vec![
                Value::Integer(id),
                Value::Integer(a),
                Value::Integer(b),
                weight(id),
            ]
        })
        .collect();
    db.bulk_insert("v", vertexes).unwrap();
    db.bulk_insert("e", edges).unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id, c = c) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
    )
    .unwrap();
    db
}

/// Allocations inside `execute_prepared`, checked to repeat exactly, and
/// the statement's rows.
fn allocations(db: &Database, sql: &str) -> (u64, Vec<Vec<Value>>) {
    let query = db.prepare(sql).unwrap();
    let mut runs = Vec::new();
    for _ in 0..2 {
        let before = ALLOCATIONS.with(Cell::get);
        let rs = db.execute_prepared(&query, &[]).unwrap();
        let spent = ALLOCATIONS.with(Cell::get) - before;
        runs.push((spent, rs.rows));
    }
    assert_eq!(runs[0], runs[1], "{sql}: count does not repeat");
    runs.swap_remove(0)
}

#[test]
fn counting_allocates_nothing_per_path_and_emitting_two() {
    let count = |hint: &str| {
        format!(
            "SELECT COUNT(P) FROM g.Paths P {hint} \
             WHERE P.StartVertex.Id = 0 AND P.Length >= 1 AND P.Length <= 2"
        )
    };
    let neighbours =
        "SELECT PS.EndVertex.Id FROM g.Paths PS WHERE PS.StartVertex.Id = 0 AND PS.Length = 1";

    let mut dfs_counts = Vec::new();
    for legs in [5i64, 50, 500] {
        let db = fixture(legs);
        let paths = 2 * legs as u64;

        // DFS holds one stack however many paths pass over it: the same
        // allocations at 10, 100 and 1000 paths.
        let (dfs, rows) = allocations(&db, &count("HINT(DFS)"));
        assert_eq!(rows, [[Value::Integer(2 * legs)]]);
        dfs_counts.push(dfs);

        // BFS (what the default `Auto` picks here: fan-out < 2) keeps its
        // queue, which grows by doubling — a logarithm of the paths, not
        // a multiple.
        let (bfs, rows) = allocations(&db, &count(""));
        assert_eq!(rows, [[Value::Integer(2 * legs)]]);
        let doublings = u64::from(paths.ilog2()) + 1;
        println!("{paths} paths counted: {dfs} allocations (DFS), {bfs} (BFS)");
        assert!(dfs <= C, "{paths} paths counted in {dfs} allocations");
        assert!(
            bfs <= dfs + doublings,
            "{paths} paths: BFS count took {bfs} allocations, DFS {dfs}, {doublings} doublings"
        );

        // Emitted paths: an id buffer and an `Arc` each, then the one
        // allocation every result row costs at the collector.
        let (spent, rows) = allocations(&db, neighbours);
        let (paths, result_rows) = (legs as u64, rows.len() as u64);
        assert_eq!(result_rows, paths);
        println!("{paths} paths emitted: {spent} allocations for {result_rows} result rows");
        assert!(
            spent <= 2 * paths + result_rows + C,
            "{spent} allocations > 2·{paths} paths + {result_rows} rows + {C}"
        );
    }
    assert!(
        dfs_counts.windows(2).all(|w| w[0] == w[1]),
        "COUNT(P) allocations vary with the paths counted: {dfs_counts:?}"
    );
}

/// A running-SUM bound that prunes every two-hop prefix costs what the
/// `legs` one-hop paths it emits cost, under DFS and BFS, over edges and
/// over vertexes: the pruned prefixes allocate nothing.
#[test]
fn running_sum_bounds_allocate_nothing_per_prefix() {
    for legs in [5i64, 50, 500] {
        let db = fixture(legs);
        for sum in ["SUM(P.Edges.w)", "SUM(P.Vertexes.c)"] {
            for hint in ["HINT(DFS)", "HINT(BFS)"] {
                let sql = format!(
                    "SELECT P.EndVertex.Id FROM g.Paths P {hint} \
                     WHERE P.StartVertex.Id = 0 AND P.Length >= 1 AND {sum} < 5"
                );
                let (spent, rows) = allocations(&db, &sql);
                let (paths, result_rows) = (legs as u64, rows.len() as u64);
                assert_eq!(result_rows, paths, "{sql}");
                println!("{legs} legs, {sum} {hint}: {spent} allocations for {paths} paths");
                assert!(
                    spent <= 2 * paths + result_rows + C,
                    "{sql}: {spent} allocations > 2·{paths} paths + {result_rows} rows + {C}"
                );
            }
        }
    }
}

/// k-shortest (`SHORTESTPATH` under an explicit hop bound) keeps its
/// prefixes as arena nodes: its allocations grow with `legs` only by the
/// doublings of the arena and the heap, never per expansion.
#[test]
fn k_shortest_allocates_nothing_per_expansion() {
    let mut base = None;
    for legs in [5i64, 50, 500] {
        let db = fixture(legs);
        let sql = format!(
            "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
             WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = {} AND PS.Length <= 2",
            2 * legs
        );
        let (spent, rows) = allocations(&db, &sql);
        assert_eq!(rows, [[Value::Double(11.0)]]);
        // Seed, `legs` leaves and `legs` tails; two vectors double.
        let doublings = 2 * u64::from((2 * legs as u64 + 1).ilog2());
        let base = *base.get_or_insert(spent);
        println!("{legs} legs: k-shortest took {spent} allocations ({doublings} doublings)");
        assert!(
            spent <= base + doublings,
            "{legs} legs: {spent} allocations > {base} at 5 legs + {doublings} doublings"
        );
    }
}

/// A path join runs one probe per outer row, and what a probe allocates
/// happens in calls the row loop makes: the seed list, the bound filter's
/// predicate lists, the traversal's own state, a k-shortest probe's boxed
/// cost function — besides the path it emits (two) and the result row
/// (one). The count per outer row is pinned exactly, in debug and release
/// builds alike: `K` more outer rows, each starting at a leaf with one way
/// on, cost `K` times it (the few doublings of the result vector and the
/// batch arena stay below `K`). A change that moves a count names why.
#[test]
fn path_join_allocations_per_outer_row_are_pinned() {
    const K: i64 = 100;
    let joined = |rows: i64, sql: &str| {
        let db = fixture(5);
        db.execute("CREATE TABLE s (sid INTEGER PRIMARY KEY, vid INTEGER, tail INTEGER)")
            .unwrap();
        let outer = (0..rows)
            .map(|sid| {
                let leaf = 1 + sid % 5;
                vec![Value::Integer(sid), Value::Integer(leaf), Value::Integer(leaf + 5)]
            })
            .collect();
        db.bulk_insert("s", outer).unwrap();
        let (spent, rs) = allocations(&db, sql);
        assert_eq!(rs.len() as u64, rows as u64, "{sql}");
        spent
    };
    for (sql, pinned) in [
        (
            "SELECT s.sid, PS.EndVertex.Id FROM s, g.Paths PS HINT(DFS) \
             WHERE PS.StartVertex.Id = s.vid AND PS.Length = 1 AND PS.Edges[0..*].w > 0.0",
            10u64,
        ),
        (
            "SELECT s.sid, PS.Cost FROM s, g.Paths PS HINT(SHORTESTPATH(w)) \
             WHERE PS.StartVertex.Id = s.vid AND PS.EndVertex.Id = s.tail AND PS.Length <= 2",
            8,
        ),
    ] {
        let (once, twice) = (joined(K, sql), joined(2 * K, sql));
        let per_row = (twice - once) / K as u64;
        println!("{sql}: {once} allocations for {K} outer rows, {twice} for {}", 2 * K);
        assert_eq!(per_row, pinned, "{sql}: allocations per outer row");
    }
}
