//! Heap allocations per statement on the relational spine, as an exact,
//! repeatable count.
//!
//! The executor's cost per *input* row used to be dominated by heap
//! traffic: a cloned `Row` out of every scan, a projected `Row` out of
//! every project, a fresh `Vec<RowId>` per index probe, a concatenated
//! `Row` per join match, three key vectors per aggregated row. Batches of
//! borrowed tuples and reused arenas (see `spine.rs`) leave one allocation
//! per *result* row at the collector, a bounded number per batch while the
//! buffers grow to their working size, and a constant per statement for
//! the operator tree. This test pins that: for the three relational shapes
//! of the `analytic_prepared` benchmark workload on its 20 000-row fixture,
//!
//! ```text
//! allocations(execute_prepared) ≤ result rows + C1 · ⌈input rows / 1024⌉ + C2
//! ```
//!
//! Everything runs in one `#[test]` on one thread, and the counter is
//! thread-local, so other tests' allocations never leak in.

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

const FACT_ROWS: i64 = 20_000;
const DIM_ROWS: i64 = 1_000;

/// Allocations a batch may cost beyond its result rows. Steady-state
/// batches cost none; this covers the few in which a pointer list, an
/// arena or the result vector doubles.
const C1: u64 = 1;
/// Allocations a statement may cost however many rows it reads: the
/// operator tree (one box per node, plus its contract and label in debug
/// builds), the scan's chunk list, the parameter and schema handles, and
/// — for the aggregate — the group table: its growth to 64 groups and one
/// retained key per group.
const C2: u64 = 160;

fn fixture() -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE fact (id INTEGER PRIMARY KEY, grp INTEGER, dim_id INTEGER, val DOUBLE)",
    )
    .unwrap();
    db.execute("CREATE TABLE dim (id INTEGER PRIMARY KEY, tag INTEGER)")
        .unwrap();
    // xorshift64*: the fixture is the same on every run.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let fact = (0..FACT_ROWS)
        .map(|id| {
            let r = next();
            vec![
                Value::Integer(id),
                Value::Integer(id % 64),
                Value::Integer((r >> 32) as i64 % DIM_ROWS),
                Value::Double((r % 1000) as f64 / 10.0),
            ]
        })
        .collect();
    let dim = (0..DIM_ROWS)
        .map(|id| vec![Value::Integer(id), Value::Integer(id % 7)])
        .collect();
    db.bulk_insert("fact", fact).unwrap();
    db.bulk_insert("dim", dim).unwrap();
    db
}

#[test]
fn allocations_follow_result_rows_not_input_rows() {
    let db = fixture();
    let shapes = [
        (
            "filtered scan + project",
            "SELECT id, val FROM fact WHERE val < 50.0 AND grp < 48",
        ),
        (
            "PK index join + project",
            "SELECT fact.id, dim.tag FROM fact JOIN dim ON fact.dim_id = dim.id",
        ),
        (
            "64-group five-aggregate",
            "SELECT grp, COUNT(*), SUM(val), AVG(val), MIN(val), MAX(val) FROM fact GROUP BY grp",
        ),
    ];
    let batches = (FACT_ROWS as u64).div_ceil(1024);
    for (shape, sql) in shapes {
        let query = db.prepare(sql).unwrap();
        // Twice: the count must repeat exactly.
        let mut counts = Vec::new();
        for _ in 0..2 {
            let before = ALLOCATIONS.with(Cell::get);
            let rs = db.execute_prepared(&query, &[]).unwrap();
            let spent = ALLOCATIONS.with(Cell::get) - before;
            counts.push((spent, rs.rows.len() as u64));
        }
        assert_eq!(counts[0], counts[1], "{shape}: count does not repeat");
        let (spent, result_rows) = counts[0];
        assert!(result_rows > 0, "{shape}: empty result");
        let bound = result_rows + C1 * batches + C2;
        println!(
            "{shape}: {spent} allocations for {result_rows} result rows over {FACT_ROWS} input \
             rows (bound {bound})"
        );
        assert!(
            spent <= bound,
            "{shape}: {spent} allocations > {result_rows} result rows + {C1}·{batches} + {C2}"
        );
    }
}
