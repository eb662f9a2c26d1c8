//! Property-based tests (proptest) over the core invariants:
//!
//! * traversal: DFS and BFS enumerate the same simple-path sets; emitted
//!   paths are valid, simple, windowed;
//! * shortest paths: SPScan costs match Bellman-Ford on random graphs;
//! * maintenance: a topology maintained through random DML equals a fresh
//!   re-extraction from the final table state;
//! * pushdown: a running-SUM bound pruned in the traversal keeps the rows
//!   the residual filter keeps, on weights of either sign;
//! * storage: rollback restores the exact pre-transaction state;
//! * grouping: HAVING over an aggregate filters groups exactly as WHERE
//!   filters a table holding the aggregate's values;
//! * front-end: the lexer/parser never panic on arbitrary input.

#![allow(clippy::needless_range_loop)] // test loops index parallel reference arrays

use proptest::prelude::*;

use grfusion::{Database, EngineConfig, Value};

/// A random small multigraph: vertex count + edge endpoint pairs.
fn arb_graph() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2usize..10).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 0..25);
        (Just(n), edges)
    })
}

/// Build a GRFusion database holding the graph (directed flag given),
/// edge weights derived deterministically from the edge id.
fn build_db(n: usize, edges: &[(usize, usize)], directed: bool) -> Database {
    build_db_with(Database::new(), n, edges, directed)
}

fn build_db_with(db: Database, n: usize, edges: &[(usize, usize)], directed: bool) -> Database {
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    let vrows: Vec<Vec<Value>> = (0..n as i64).map(|i| vec![Value::Integer(i)]).collect();
    db.bulk_insert("v", vrows).unwrap();
    let erows: Vec<Vec<Value>> = edges
        .iter()
        .enumerate()
        .map(|(i, (a, b))| {
            vec![
                Value::Integer(i as i64),
                Value::Integer(*a as i64),
                Value::Integer(*b as i64),
                Value::Double(1.0 + (i % 7) as f64),
            ]
        })
        .collect();
    db.bulk_insert("e", erows).unwrap();
    db.execute(&format!(
        "CREATE {} GRAPH VIEW g VERTEXES(ID = id) FROM v \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
        if directed { "DIRECTED" } else { "UNDIRECTED" }
    ))
    .unwrap();
    db
}

/// Rows rendered column-by-column, in emission order (NOT sorted: the
/// equivalence tests assert the exact emission order).
fn rows_exact(db: &Database, sql: &str) -> Vec<Vec<String>> {
    db.execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r.iter().map(|v| v.to_string()).collect())
        .collect()
}

/// SQL-ish vocabulary for the engine-level fuzzer: keywords, punctuation,
/// literals, and names that resolve against `build_db`'s catalog (tables
/// `v`/`e`, graph view `g`), so random soups reach deep into the
/// analyzer, planner, and DML paths instead of dying in the parser.
const SOUP_TOKENS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "IN", "BETWEEN", "GROUP", "BY",
    "ORDER", "HAVING", "LIMIT", "DISTINCT", "AS", "INSERT", "INTO", "VALUES",
    "UPDATE", "SET", "DELETE", "CREATE", "DROP", "TABLE", "GRAPH", "VIEW",
    "EXPLAIN", "ANALYZE", "BEGIN", "COMMIT", "ROLLBACK", "HINT", "DFS", "BFS",
    "SHORTESTPATH", "COUNT", "SUM", "AVG", "MIN", "MAX", "NULL", "TRUE", "FALSE",
    "v", "e", "g", "id", "a", "b", "w", "PS", "g.Paths", "g.Vertexes", "g.Edges",
    "PS.Length", "PS.Cost", "PS.PathString", "PS.StartVertex.Id", "PS.EndVertex.Id",
    "PS.Edges[0..*].w", "PS.Edges[0]", "*", "(", ")", ",", ".", ";", "=", "<", ">",
    "<=", ">=", "<>", "+", "-", "/", "%", "0", "1", "42", "2.5", "'txt'", "?", "[", "]",
];

fn arb_sql_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..SOUP_TOKENS.len(), 0..14)
        .prop_map(|ix| ix.iter().map(|&i| SOUP_TOKENS[i]).collect::<Vec<_>>().join(" "))
}

fn path_strings(db: &Database, sql: &str) -> Vec<String> {
    let mut v: Vec<String> = db
        .execute(sql)
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].to_string())
        .collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DFS and BFS must enumerate identical simple-path sets for any
    /// window on any graph, directed or not.
    #[test]
    fn dfs_bfs_equivalence((n, edges) in arb_graph(), directed in any::<bool>(),
                           min_len in 0usize..3, extra in 0usize..3) {
        let max_len = min_len + extra;
        let db = build_db(n, &edges, directed);
        let sql_tmpl = |hint: &str| format!(
            "SELECT PS.PathString FROM g.Paths PS HINT({hint}) \
             WHERE PS.StartVertex.Id = 0 \
             AND PS.Length >= {min_len} AND PS.Length <= {max_len}"
        );
        let dfs = path_strings(&db, &sql_tmpl("DFS"));
        let bfs = path_strings(&db, &sql_tmpl("BFS"));
        prop_assert_eq!(dfs, bfs);
    }

    /// Every emitted path is simple (no intermediate revisits, no reused
    /// edges) and respects the window.
    #[test]
    fn paths_are_simple_and_windowed((n, edges) in arb_graph(), directed in any::<bool>()) {
        let db = build_db(n, &edges, directed);
        let rs = db.execute(
            "SELECT PS FROM g.Paths PS WHERE PS.StartVertex.Id = 0 \
             AND PS.Length >= 1 AND PS.Length <= 4",
        ).unwrap();
        for row in &rs.rows {
            let p = row[0].as_path().unwrap();
            prop_assert!(p.length() >= 1 && p.length() <= 4);
            prop_assert_eq!(p.vertexes().len(), p.edges().len() + 1);
            // intermediates unique; start may be repeated only as the end
            let interior = &p.vertexes()[1..];
            let mut seen = std::collections::HashSet::new();
            for (i, v) in interior.iter().enumerate() {
                if i == interior.len() - 1 && *v == p.vertexes()[0] {
                    continue; // closing a cycle
                }
                prop_assert!(seen.insert(*v), "repeated intermediate {} in {}", v, p.path_string());
                prop_assert!(*v != p.vertexes()[0], "start revisited mid-path in {}", p.path_string());
            }
            let mut e = p.edges().to_vec();
            e.sort_unstable();
            e.dedup();
            prop_assert_eq!(e.len(), p.edges().len(), "edge reused");
        }
    }

    /// SPScan shortest-path costs agree with a reference Bellman-Ford.
    #[test]
    fn spscan_matches_bellman_ford((n, edges) in arb_graph(), directed in any::<bool>()) {
        let db = build_db(n, &edges, directed);
        // reference distances from vertex 0
        let mut dist = vec![f64::INFINITY; n];
        dist[0] = 0.0;
        for _ in 0..n {
            for (i, (a, b)) in edges.iter().enumerate() {
                let w = 1.0 + (i % 7) as f64;
                if dist[*a] + w < dist[*b] {
                    dist[*b] = dist[*a] + w;
                }
                if !directed && dist[*b] + w < dist[*a] {
                    dist[*a] = dist[*b] + w;
                }
            }
        }
        for t in 0..n {
            let rs = db.execute(&format!(
                "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
                 WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = {t} LIMIT 1"
            )).unwrap();
            match rs.rows.first() {
                Some(row) => {
                    let got = row[0].as_double().unwrap();
                    prop_assert!((got - dist[t]).abs() < 1e-9,
                        "target {}: got {} want {}", t, got, dist[t]);
                }
                None => prop_assert!(dist[t].is_infinite(), "target {t} should be reachable"),
            }
        }
    }

    /// Reachability (the visited-set fast path) agrees with exhaustive
    /// enumeration (COUNT of bounded paths, which cannot use it).
    #[test]
    fn reachability_fastpath_matches_enumeration((n, edges) in arb_graph(),
                                                 directed in any::<bool>(),
                                                 t in 0usize..10, h in 1usize..4) {
        let t = t % n;
        let db = build_db(n, &edges, directed);
        let fast = !db.execute(&format!(
            "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = 0 \
             AND PS.EndVertex.Id = {t} AND PS.Length <= {h} LIMIT 1"
        )).unwrap().rows.is_empty();
        let slow = db.execute(&format!(
            "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = 0 \
             AND P.EndVertex.Id = {t} AND P.Length >= 1 AND P.Length <= {h}"
        )).unwrap().scalar().unwrap().as_integer().unwrap() > 0;
        // source == target: the fast path counts the zero-length path.
        let expected = if t == 0 { true } else { slow };
        prop_assert_eq!(fast, expected);
    }

    /// A running-SUM bound pushed into the traversal keeps exactly the
    /// rows the residual filter alone keeps, on weights of either sign.
    #[test]
    fn running_sum_pushdown_matches_the_filter_on_signed_weights(
        (n, edges) in arb_graph(),
        directed in any::<bool>(),
        m in 1i64..11,
        c in 0i64..11,
        k in -6i64..10,
    ) {
        let db = build_db(n, &edges, directed);
        // Weights in -5..=5, scattered over the edge ids.
        db.execute(&format!("UPDATE e SET w = (id * {m} + {c}) % 11 - 5")).unwrap();
        let sql = format!(
            "SELECT PS.PathString FROM g.Paths PS \
             WHERE PS.Length <= 3 AND SUM(PS.Edges.w) < {k}"
        );
        let pushed = path_strings(&db, &sql);
        let mut cfg = db.config();
        cfg.optimizer.aggregate_pushdown = false;
        db.set_config(cfg);
        prop_assert_eq!(pushed, path_strings(&db, &sql));
    }

    /// Random DML on the sources, then: maintained topology ≡ topology
    /// re-extracted from the final table state.
    #[test]
    fn maintenance_equals_reextraction((n, edges) in arb_graph(),
                                       ops in proptest::collection::vec((0u8..4, 0usize..32), 0..12)) {
        // Use a directed view over dedicated tables.
        let db = build_db(n, &edges, true);
        let mut next_v = n as i64;
        let mut next_e = edges.len() as i64;
        for (kind, x) in ops {
            match kind {
                0 => {
                    // insert vertex
                    let _ = db.execute(&format!("INSERT INTO v VALUES ({next_v})"));
                    next_v += 1;
                }
                1 => {
                    // insert edge between random existing ids (may fail if
                    // endpoints missing — statement rolls back, fine)
                    let a = x as i64 % next_v;
                    let b = (x as i64 * 7 + 1) % next_v;
                    let _ = db.execute(&format!(
                        "INSERT INTO e VALUES ({next_e}, {a}, {b}, 1.0)"
                    ));
                    next_e += 1;
                }
                2 => {
                    // delete an edge
                    let _ = db.execute(&format!("DELETE FROM e WHERE id = {}", x as i64 % next_e.max(1)));
                }
                _ => {
                    // delete a vertex (only succeeds when isolated)
                    let _ = db.execute(&format!("DELETE FROM v WHERE id = {}", x as i64 % next_v));
                }
            }
        }
        // Reference: rebuild a second graph view from the same tables.
        db.execute(
            "CREATE DIRECTED GRAPH VIEW g2 VERTEXES(ID = id) FROM v \
             EDGES(ID = id, FROM = a, TO = b, w = w) FROM e",
        ).unwrap();
        let s1 = db.graph_stats("g").unwrap();
        let s2 = db.graph_stats("g2").unwrap();
        prop_assert_eq!(s1.vertex_count, s2.vertex_count);
        prop_assert_eq!(s1.edge_count, s2.edge_count);
        // Same 1-hop neighbourhoods for every vertex.
        let rs = db.execute("SELECT id FROM v").unwrap();
        for row in &rs.rows {
            let id = row[0].as_integer().unwrap();
            let q = |gv: &str| -> Vec<String> {
                let mut v: Vec<String> = db.execute(&format!(
                    "SELECT PS.EndVertex.Id FROM {gv}.Paths PS \
                     WHERE PS.StartVertex.Id = {id} AND PS.Length = 1"
                )).unwrap().rows.iter().map(|r| r[0].to_string()).collect();
                v.sort();
                v
            };
            prop_assert_eq!(q("g"), q("g2"), "neighbourhood of {} differs", id);
        }
    }

    /// Sealed-CSR round-trip: the same graph and random DML burst, run on
    /// a sealing engine (seal at materialization, overlay + automatic
    /// re-seal under DML) and on a never-sealing engine, must leave
    /// byte-identical state dumps and byte-identical DFS enumerations —
    /// the physical layout is invisible to every logical observer.
    #[test]
    fn seal_dml_reseal_roundtrips_to_never_sealed(
        (n, edges) in arb_graph(),
        directed in any::<bool>(),
        ops in proptest::collection::vec((0u8..4, 0usize..32), 0..12)
    ) {
        use grfusion::CsrConfig;
        let cfg = EngineConfig::default();
        let mut sealed_cfg = cfg;
        sealed_cfg.csr = CsrConfig::sealed();
        let mut plain_cfg = cfg;
        plain_cfg.csr = CsrConfig::adjacency_only();
        let sealed = build_db_with(Database::with_config(sealed_cfg), n, &edges, directed);
        let plain = build_db_with(Database::with_config(plain_cfg), n, &edges, directed);
        prop_assert!(sealed.graph_stats("g").unwrap().sealed_bytes > 0);
        prop_assert_eq!(plain.graph_stats("g").unwrap().sealed_bytes, 0);

        let mut next_v = n as i64;
        let mut next_e = edges.len() as i64;
        for (kind, x) in ops {
            let stmt = match kind {
                0 => {
                    next_v += 1;
                    format!("INSERT INTO v VALUES ({})", next_v - 1)
                }
                1 => {
                    let a = x as i64 % next_v;
                    let b = (x as i64 * 7 + 1) % next_v;
                    next_e += 1;
                    format!("INSERT INTO e VALUES ({}, {a}, {b}, 1.0)", next_e - 1)
                }
                2 => format!("DELETE FROM e WHERE id = {}", x as i64 % next_e.max(1)),
                _ => format!("DELETE FROM v WHERE id = {}", x as i64 % next_v),
            };
            // Either both engines accept the statement or both reject it.
            let a = sealed.execute(&stmt).map(|r| r.rows_affected);
            let b = plain.execute(&stmt).map(|r| r.rows_affected);
            match (a, b) {
                (Ok(x), Ok(y)) => prop_assert_eq!(x, y, "{}", stmt),
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "{}: sealed {:?} vs plain {:?}", stmt, a, b),
            }
        }

        prop_assert_eq!(sealed.state_dump().unwrap(), plain.state_dump().unwrap());
        let sql = "SELECT PS.PathString FROM g.Paths PS HINT(DFS) \
                   WHERE PS.Length >= 1 AND PS.Length <= 3";
        prop_assert_eq!(rows_exact(&sealed, sql), rows_exact(&plain, sql));
    }

    /// The batch size must be invisible to every logical observer: the
    /// same random graph executed at one row per batch (every operator
    /// hands over exactly the row its consumer is about to use) and at
    /// larger sizes returns byte-identical rows in identical order for a
    /// spread of relational, join, aggregate, and graph-joined queries.
    #[test]
    fn batch_execution_equals_row_execution(
        (n, edges) in arb_graph(),
        directed in any::<bool>(),
        size_ix in 0usize..4,
    ) {
        let cfg = EngineConfig::default();
        let row = build_db_with(Database::with_config(cfg), n, &edges, directed);
        row.set_batch_rows(1);
        let batch = build_db_with(Database::with_config(cfg), n, &edges, directed);
        batch.set_batch_rows([2usize, 3, 7, 1024][size_ix]);
        for sql in [
            "SELECT * FROM e",
            "SELECT id, w FROM e WHERE a >= 1 AND w > 2.0",
            "SELECT id FROM e WHERE NOT (w = 3.0 OR a = 0)",
            "SELECT e.w, v.id FROM e, v WHERE e.a = v.id",
            "SELECT e.id, v.id FROM e JOIN v ON e.b = v.id",
            "SELECT a, COUNT(*), SUM(w), AVG(w), MIN(w), MAX(w) FROM e GROUP BY a",
            "SELECT COUNT(*), AVG(w) FROM e WHERE w <> 3.0",
            "SELECT DISTINCT a FROM e",
            "SELECT id FROM v ORDER BY id",
            "SELECT id, a FROM e ORDER BY a LIMIT 3",
            "SELECT PS.PathString FROM g.Paths PS HINT(DFS) \
             WHERE PS.Length >= 1 AND PS.Length <= 2",
        ] {
            prop_assert_eq!(rows_exact(&row, sql), rows_exact(&batch, sql), "{}", sql);
        }
    }

    /// Rollback restores tables and topology to the pre-transaction state.
    #[test]
    #[allow(clippy::explicit_counter_loop)] // ids advance independently of the loop
    fn rollback_restores_state((n, edges) in arb_graph(),
                               inserts in proptest::collection::vec(0usize..8, 1..6)) {
        let db = build_db(n, &edges, true);
        let before_v = db.table_len("v").unwrap();
        let before_e = db.table_len("e").unwrap();
        let before = db.graph_stats("g").unwrap();

        db.execute("BEGIN").unwrap();
        let mut vid = 1000i64;
        let mut eid = 1000i64;
        for x in inserts {
            db.execute(&format!("INSERT INTO v VALUES ({vid})")).unwrap();
            let _ = db.execute(&format!(
                "INSERT INTO e VALUES ({eid}, {vid}, {}, 1.0)",
                x as i64 % n as i64
            ));
            vid += 1;
            eid += 1;
        }
        db.execute("ROLLBACK").unwrap();

        prop_assert_eq!(db.table_len("v").unwrap(), before_v);
        prop_assert_eq!(db.table_len("e").unwrap(), before_e);
        let after = db.graph_stats("g").unwrap();
        prop_assert_eq!(before.vertex_count, after.vertex_count);
        prop_assert_eq!(before.edge_count, after.edge_count);
    }

    /// The SQL front-end never panics, whatever the input.
    #[test]
    fn parser_never_panics(input in "\\PC{0,80}") {
        let _ = grfusion_sql::parse_statement(&input);
        let _ = grfusion_sql::parse_statements(&input);
    }

    /// The whole engine — parser, analyzer, planner, executor — returns
    /// `Err`, never panics, on arbitrary token soup fed to
    /// `Database::execute` against a live catalog (so name resolution,
    /// graph views, and DML paths are all reachable).
    #[test]
    fn execute_never_panics_on_token_soup(soup in arb_sql_soup(), raw in "\\PC{0,60}") {
        let db = build_db(3, &[(0, 1), (1, 2)], true);
        for sql in [soup.as_str(), raw.as_str()] {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = db.execute(sql);
                let _ = db.explain(sql);
            }));
            prop_assert!(outcome.is_ok(), "engine panicked on {:?}", sql);
        }
    }

    /// Value comparison is symmetric and consistent with equality.
    #[test]
    fn value_comparison_consistency(a in -100i64..100, b in -100i64..100) {
        use grfusion_common::Value;
        let va = Value::Integer(a);
        let vb = Value::Double(b as f64);
        let fwd = va.sql_cmp(&vb);
        let back = vb.sql_cmp(&va).map(|o| o.reverse());
        prop_assert_eq!(fwd, back);
        prop_assert_eq!(va.sql_eq(&vb), Some(a == b));
    }
}

// ---------------------------------------------------------------------------
// Three-valued logic (3VL) pins
// ---------------------------------------------------------------------------

/// SQL literal for an optional integer (`None` → `NULL`).
fn lit(v: Option<i64>) -> String {
    match v {
        Some(i) => i.to_string(),
        None => "NULL".to_string(),
    }
}

/// A database holding one nullable-integer row per entry of `xs` (and a
/// second nullable column from `ys` when present).
fn nullable_db(xs: &[Option<i64>], ys: Option<&[Option<i64>]>) -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x INTEGER, y INTEGER)")
        .unwrap();
    for (i, x) in xs.iter().enumerate() {
        let y = ys.map_or(None, |ys| ys[i]);
        db.execute(&format!(
            "INSERT INTO t VALUES ({}, {}, {})",
            i,
            lit(*x),
            lit(y)
        ))
        .unwrap();
    }
    db
}

/// Ids of rows the engine lets through `WHERE <pred>` (only TRUE passes).
fn passing_ids(db: &Database, pred: &str) -> Vec<i64> {
    db.execute(&format!("SELECT id FROM t WHERE {pred}"))
        .unwrap()
        .rows
        .iter()
        .map(|r| match &r[0] {
            Value::Integer(i) => *i,
            other => panic!("non-integer id {other:?}"),
        })
        .collect()
}

/// Reference Kleene `v BETWEEN lo AND hi`: UNKNOWN unless one side decides.
fn ref_between(v: Option<i64>, lo: Option<i64>, hi: Option<i64>) -> Option<bool> {
    let ge = v.zip(lo).map(|(v, lo)| v >= lo);
    let le = v.zip(hi).map(|(v, hi)| v <= hi);
    match (ge, le) {
        (Some(false), _) | (_, Some(false)) => Some(false),
        (None, _) | (_, None) => None,
        _ => Some(true),
    }
}

/// Reference Kleene `v IN (items)`: TRUE on any match, else UNKNOWN if any
/// item (or the probe) is NULL, else FALSE.
fn ref_in(v: Option<i64>, items: &[Option<i64>]) -> Option<bool> {
    let v = v?;
    let mut unknown = false;
    for it in items {
        match it {
            Some(i) if *i == v => return Some(true),
            Some(_) => {}
            None => unknown = true,
        }
    }
    if unknown {
        None
    } else {
        Some(false)
    }
}

fn arb_opt() -> impl Strategy<Value = Option<i64>> {
    (any::<bool>(), -4i64..4).prop_map(|(some, v)| some.then_some(v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `NOT BETWEEN` with NULL probe/bounds follows Kleene semantics:
    /// `NOT UNKNOWN` is UNKNOWN and must not pass the WHERE clause.
    #[test]
    fn three_vl_not_between(xs in proptest::collection::vec(arb_opt(), 1..8),
                            lo in arb_opt(), hi in arb_opt()) {
        let db = nullable_db(&xs, None);
        let pred = format!("x NOT BETWEEN {} AND {}", lit(lo), lit(hi));
        let expect: Vec<i64> = xs.iter().enumerate()
            .filter(|(_, x)| ref_between(**x, lo, hi).map(|b| !b) == Some(true))
            .map(|(i, _)| i as i64)
            .collect();
        prop_assert_eq!(passing_ids(&db, &pred), expect);
        // And BETWEEN itself is the un-negated reference.
        let pred = format!("x BETWEEN {} AND {}", lit(lo), lit(hi));
        let expect: Vec<i64> = xs.iter().enumerate()
            .filter(|(_, x)| ref_between(**x, lo, hi) == Some(true))
            .map(|(i, _)| i as i64)
            .collect();
        prop_assert_eq!(passing_ids(&db, &pred), expect);
    }

    /// `IN` / `NOT IN` with NULL list items: a NULL item can turn FALSE
    /// into UNKNOWN but never into TRUE, and `NOT IN (..., NULL, ...)`
    /// passes nothing unless a definite non-match exists for every item.
    #[test]
    fn three_vl_in_list(xs in proptest::collection::vec(arb_opt(), 1..8),
                        items in proptest::collection::vec(arb_opt(), 1..5)) {
        let db = nullable_db(&xs, None);
        let list: Vec<String> = items.iter().map(|i| lit(*i)).collect();
        let list = list.join(", ");
        let pred = format!("x IN ({list})");
        let expect: Vec<i64> = xs.iter().enumerate()
            .filter(|(_, x)| ref_in(**x, &items) == Some(true))
            .map(|(i, _)| i as i64)
            .collect();
        prop_assert_eq!(passing_ids(&db, &pred), expect);
        let pred = format!("x NOT IN ({list})");
        let expect: Vec<i64> = xs.iter().enumerate()
            .filter(|(_, x)| ref_in(**x, &items).map(|b| !b) == Some(true))
            .map(|(i, _)| i as i64)
            .collect();
        prop_assert_eq!(passing_ids(&db, &pred), expect);
    }

    /// Kleene AND/OR over nullable comparisons: FALSE dominates AND, TRUE
    /// dominates OR, NULL comparisons yield UNKNOWN, and only TRUE rows
    /// survive the WHERE clause.
    #[test]
    fn three_vl_kleene_and_or(rows in proptest::collection::vec((arb_opt(), arb_opt()), 1..8),
                              c1 in -4i64..4, c2 in -4i64..4) {
        let xs: Vec<Option<i64>> = rows.iter().map(|(x, _)| *x).collect();
        let ys: Vec<Option<i64>> = rows.iter().map(|(_, y)| *y).collect();
        let db = nullable_db(&xs, Some(&ys));
        let pa = |x: Option<i64>| x.map(|x| x < c1);
        let pb = |y: Option<i64>| y.map(|y| y < c2);
        let kleene_and = |a: Option<bool>, b: Option<bool>| match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        };
        let kleene_or = |a: Option<bool>, b: Option<bool>| match (a, b) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        };
        let pred = format!("x < {c1} AND y < {c2}");
        let expect: Vec<i64> = rows.iter().enumerate()
            .filter(|(_, (x, y))| kleene_and(pa(*x), pb(*y)) == Some(true))
            .map(|(i, _)| i as i64)
            .collect();
        prop_assert_eq!(passing_ids(&db, &pred), expect);
        let pred = format!("x < {c1} OR y < {c2}");
        let expect: Vec<i64> = rows.iter().enumerate()
            .filter(|(_, (x, y))| kleene_or(pa(*x), pb(*y)) == Some(true))
            .map(|(i, _)| i as i64)
            .collect();
        prop_assert_eq!(passing_ids(&db, &pred), expect);
        // NOT over UNKNOWN stays UNKNOWN: NOT (AND) passes exactly the
        // rows where the conjunction is definitely FALSE.
        let pred = format!("NOT (x < {c1} AND y < {c2})");
        let expect: Vec<i64> = rows.iter().enumerate()
            .filter(|(_, (x, y))| kleene_and(pa(*x), pb(*y)) == Some(false))
            .map(|(i, _)| i as i64)
            .collect();
        prop_assert_eq!(passing_ids(&db, &pred), expect);
    }
}

// ---------------------------------------------------------------------------
// HAVING takes what WHERE takes
// ---------------------------------------------------------------------------

/// One integer test of the operand `{v}`: a comparison, `[NOT] BETWEEN`
/// or `[NOT] IN`, with constants from the 3VL generator (NULL included).
fn arb_int_test() -> impl Strategy<Value = String> {
    let ops = ["=", "<>", "<", "<=", ">", ">="];
    prop_oneof![
        (0..ops.len(), arb_opt()).prop_map(move |(op, k)| format!("{{v}} {} {}", ops[op], lit(k))),
        (any::<bool>(), arb_opt(), arb_opt()).prop_map(|(not, lo, hi)| {
            let not = if not { "NOT " } else { "" };
            format!("{{v}} {not}BETWEEN {} AND {}", lit(lo), lit(hi))
        }),
        (any::<bool>(), proptest::collection::vec(arb_opt(), 1..4)).prop_map(|(not, items)| {
            let not = if not { "NOT " } else { "" };
            let items: Vec<String> = items.into_iter().map(lit).collect();
            format!("{{v}} {not}IN ({})", items.join(", "))
        }),
    ]
}

/// A predicate over `{v}`: one test, its negation, or two joined by AND/OR.
fn arb_int_pred() -> impl Strategy<Value = String> {
    (0u8..4, arb_int_test(), arb_int_test()).prop_map(|(form, a, b)| match form {
        0 => a,
        1 => format!("NOT ({a})"),
        2 => format!("({a}) AND ({b})"),
        _ => format!("({a}) OR ({b})"),
    })
}

/// The first column of every row, rendered and sorted.
fn first_column_sorted(db: &Database, sql: &str) -> Vec<String> {
    let rs = db.execute(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    let mut out: Vec<String> = rs.rows.iter().map(|r| format!("{:?}", r[0])).collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `HAVING P(COUNT(*))` keeps exactly the groups whose count passes
    /// `WHERE P(c)` in a table of the counts.
    #[test]
    fn having_filters_groups_like_where_filters_rows(
        xs in proptest::collection::vec(arb_opt(), 1..16),
        pred in arb_int_pred(),
    ) {
        let db = nullable_db(&xs, None);
        db.execute("CREATE TABLE counts (g INTEGER, c INTEGER)").unwrap();
        let mut counts: Vec<(Option<i64>, i64)> = Vec::new();
        for x in &xs {
            match counts.iter_mut().find(|(g, _)| g == x) {
                Some((_, c)) => *c += 1,
                None => counts.push((*x, 1)),
            }
        }
        for (g, c) in &counts {
            db.execute(&format!("INSERT INTO counts VALUES ({}, {c})", lit(*g))).unwrap();
        }
        let having = pred.replace("{v}", "COUNT(*)");
        let filter = pred.replace("{v}", "c");
        prop_assert_eq!(
            first_column_sorted(&db, &format!("SELECT x FROM t GROUP BY x HAVING {having}")),
            first_column_sorted(&db, &format!("SELECT g FROM counts WHERE {filter}")),
            "HAVING {}", having
        );
    }
}
