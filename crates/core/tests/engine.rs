//! End-to-end engine tests: every query shape from the paper (EDBT 2018
//! Listings 1–6) plus DDL, DML, transactions, graph maintenance, optimizer
//! behaviours, and error paths.

use grfusion::{Database, EngineConfig, Error, Value};

/// The paper's Figure 3 social network, slightly extended:
///
/// users: 1 Smith (Lawyer), 2 Jones (Doctor), 3 Parker (Lawyer), 4 Patrick
/// relationships (undirected): 10: 1-2 (2001), 11: 2-3 (1999), 12: 3-4 (2005),
///                             13: 1-4 (2010)
fn social_db() -> Database {
    let db = Database::new();
    db.execute(
        "CREATE TABLE Users (uId INTEGER PRIMARY KEY, lName VARCHAR, dob VARCHAR, job VARCHAR)",
    )
    .unwrap();
    db.execute(
        "CREATE TABLE Relationships (relId INTEGER PRIMARY KEY, uId1 INTEGER, uId2 INTEGER, \
         startYear INTEGER, isRelative BOOLEAN)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO Users VALUES \
         (1, 'Smith', '1989-01-01', 'Lawyer'), \
         (2, 'Jones', '1991-05-12', 'Doctor'), \
         (3, 'Parker', '1985-03-03', 'Lawyer'), \
         (4, 'Patrick', '1970-07-07', 'Engineer')",
    )
    .unwrap();
    db.execute(
        "INSERT INTO Relationships VALUES \
         (10, 1, 2, 2001, true), \
         (11, 2, 3, 1999, false), \
         (12, 3, 4, 2005, false), \
         (13, 1, 4, 2010, true)",
    )
    .unwrap();
    db.execute(
        "CREATE UNDIRECTED GRAPH VIEW SocialNetwork \
         VERTEXES(ID = uId, lstName = lName, birthdate = dob, job = job) FROM Users \
         EDGES(ID = relId, FROM = uId1, TO = uId2, startYear = startYear, relative = isRelative) \
         FROM Relationships",
    )
    .unwrap();
    db
}

/// A small directed weighted road network: grid-ish with known shortest
/// paths. 1→2 (1.0), 2→4 (1.0), 1→3 (1.0), 3→4 (5.0), 1→4 (10.0), 4→5 (2.0)
fn road_db() -> Database {
    let db = Database::new();
    db.execute("CREATE TABLE Intersections (iId INTEGER PRIMARY KEY, addr VARCHAR)")
        .unwrap();
    db.execute(
        "CREATE TABLE Roads (rId INTEGER PRIMARY KEY, src INTEGER, dst INTEGER, \
         distance DOUBLE, toll BOOLEAN)",
    )
    .unwrap();
    db.execute(
        "INSERT INTO Intersections VALUES (1, 'Address 1'), (2, 'Address 2'), (3, 'Address 3'), \
         (4, 'Address 4'), (5, 'Address 5')",
    )
    .unwrap();
    db.execute(
        "INSERT INTO Roads VALUES \
         (100, 1, 2, 1.0, false), (101, 2, 4, 1.0, false), (102, 1, 3, 1.0, false), \
         (103, 3, 4, 5.0, false), (104, 1, 4, 10.0, true), (105, 4, 5, 2.0, false)",
    )
    .unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW RoadNetwork \
         VERTEXES(ID = iId, address = addr) FROM Intersections \
         EDGES(ID = rId, FROM = src, TO = dst, distance = distance, toll = toll) FROM Roads",
    )
    .unwrap();
    db
}

fn texts(rs: &grfusion::ResultSet) -> Vec<String> {
    let mut v: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    v.sort();
    v
}

// ---------------------------------------------------------------------------
// Listings
// ---------------------------------------------------------------------------

#[test]
fn listing2_friends_of_friends() {
    let db = social_db();
    // Lawyers: Smith (1) and Parker (3). Paths of length 2 over edges with
    // startYear > 2000. Qualifying edges: 10 (1-2), 12 (3-4), 13 (1-4).
    // From 1: 1-2 (dead end at len 1... no second qualifying edge from 2),
    //          1-4-3 (edges 13, 12) → EndVertex Parker
    // From 3: 3-4-1 (edges 12, 13) → EndVertex Smith
    let rs = db
        .execute(
            "SELECT PS.EndVertex.lstName FROM Users U, SocialNetwork.Paths PS \
             WHERE U.job = 'Lawyer' AND PS.StartVertex.Id = U.uId AND PS.Length = 2 \
             AND PS.Edges[0..*].startYear > 2000",
        )
        .unwrap();
    assert_eq!(texts(&rs), vec!["Parker", "Smith"]);
}

#[test]
fn listing3_reachability_with_edge_type_filter() {
    let db = social_db();
    // Reachability from Smith to Parker over non-relative edges only:
    // 1-2 is relative → blocked; path 1-?: only edge 11 (2-3) and 12 (3-4)
    // are non-relative; from 1 both incident edges (10, 13) are relative →
    // unreachable.
    let rs = db
        .execute(
            "SELECT PS.PathString FROM Users A, Users B, SocialNetwork.Paths PS \
             WHERE A.lName = 'Smith' AND B.lName = 'Parker' \
             AND PS.StartVertex.Id = A.uId AND PS.EndVertex.Id = B.uId \
             AND PS.Edges[0..*].relative = false LIMIT 1",
        )
        .unwrap();
    assert!(rs.rows.is_empty());
    // Without the filter, a path exists.
    let rs = db
        .execute(
            "SELECT PS.PathString FROM Users A, Users B, SocialNetwork.Paths PS \
             WHERE A.lName = 'Smith' AND B.lName = 'Parker' \
             AND PS.StartVertex.Id = A.uId AND PS.EndVertex.Id = B.uId LIMIT 1",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
}

/// Listing 4's statement: the cycle-closing conjunct is consumed into the
/// scan (`closing`), so nothing is left to filter and the count is taken
/// inside the traversal.
const LISTING4: &str = "SELECT COUNT(P) FROM SocialNetwork.Paths P WHERE P.Length = 3 \
                        AND P.Edges[2].EndVertex = P.Edges[0].StartVertex";

#[test]
fn listing4_triangle_counting() {
    let db = social_db();
    let plan = db.explain(LISTING4).unwrap();
    assert!(plan.contains("len 3..=3, closing, emit=count)"), "{plan}");
    assert!(!plan.contains("Filter"), "{plan}");
    // Triangles in the social network: 1-2-3-4-1? No: a triangle needs a
    // 3-cycle; edges 10 (1-2), 11 (2-3), 12 (3-4), 13 (1-4) form a 4-cycle,
    // so triangle count must be 0.
    let rs = db.execute(LISTING4).unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Integer(0)));
    // Add the chord 1-3: the 4-cycle 1-2-3-4 plus chord yields TWO
    // triangles, {1,2,3} and {1,3,4}.
    db.execute("INSERT INTO Relationships VALUES (14, 3, 1, 2011, false)")
        .unwrap();
    let rs = db.execute(LISTING4).unwrap();
    // Undirected: each triangle is traversed from 3 start vertexes × 2
    // directions = 6 closed 3-paths; 2 triangles → 12.
    assert_eq!(rs.scalar(), Some(&Value::Integer(12)));
    // Constraining the first edge pins the count to paths through edge 10.
    let rs = db
        .execute(
            "SELECT COUNT(P) FROM SocialNetwork.Paths P WHERE P.Length = 3 \
             AND P.Edges[0].Id = 10 \
             AND P.Edges[2].EndVertex = P.Edges[0].StartVertex",
        )
        .unwrap();
    // Triangle {1,2,3} traversed with edge 10 first: 1-2-3-1 and 2-1-3-2.
    assert_eq!(rs.scalar(), Some(&Value::Integer(2)));
    // The pushed edge predicate stays residual, the closing conjunct does not.
    let plan = db
        .explain(
            "SELECT COUNT(P) FROM SocialNetwork.Paths P WHERE P.Length = 3 \
             AND P.Edges[0].Id = 10 \
             AND P.Edges[2].EndVertex = P.Edges[0].StartVertex",
        )
        .unwrap();
    assert!(plan.contains("len 3..=3, closing)"), "{plan}");
    assert!(plan.contains("Filter"), "{plan}");
}

#[test]
fn listing5_vertex_scan_with_relational_ops() {
    let db = social_db();
    let rs = db
        .execute(
            "SELECT VS.birthdate, VS.fanOut FROM SocialNetwork.Vertexes VS \
             WHERE VS.lstName = 'Smith'",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::text("1989-01-01"));
    assert_eq!(rs.rows[0][1], Value::Integer(2)); // edges 10 and 13
}

#[test]
fn listing6_top_k_shortest_paths() {
    let db = road_db();
    let rs = db
        .execute(
            "SELECT TOP 2 PS FROM RoadNetwork.Paths PS HINT(SHORTESTPATH(distance)), \
             RoadNetwork.Vertexes Src, RoadNetwork.Vertexes Dest \
             WHERE PS.StartVertex.Id = Src.Id AND PS.EndVertex.Id = Dest.Id \
             AND Src.address = 'Address 1' AND Dest.address = 'Address 4'",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    let p0 = rs.rows[0][0].as_path().unwrap();
    let p1 = rs.rows[1][0].as_path().unwrap();
    assert_eq!(p0.path_string(), "1->2->4");
    assert!((p0.cost - 2.0).abs() < 1e-9);
    assert_eq!(p1.path_string(), "1->3->4");
    assert!((p1.cost - 6.0).abs() < 1e-9);
}

#[test]
fn shortest_path_with_edge_predicate_avoids_toll() {
    let db = road_db();
    // Exclude toll roads; shortest 1→4 without edge 104 is still 1->2->4.
    let rs = db
        .execute(
            "SELECT PS.PathString, PS.Cost FROM RoadNetwork.Paths PS HINT(SHORTESTPATH(distance)) \
             WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 \
             AND PS.Edges[0..*].toll = false LIMIT 1",
        )
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::text("1->2->4"));
}

/// A hop bound the query wrote is a bound, however large. `Length <= 64`
/// used to be taken for the planner's default SPScan cap (also 64) and sent
/// to hop-blind Dijkstra, whose cheapest path — 70 hops here — was then
/// dropped: no rows, although a costlier path fits the bound.
#[test]
fn shortest_path_honours_an_explicit_length_bound_of_64_or_more() {
    let db = Database::new();
    db.execute("CREATE TABLE n (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE r (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER, w DOUBLE)")
        .unwrap();
    let mut nodes: Vec<Vec<Value>> = (0..=70i64).map(|i| vec![Value::Integer(i)]).collect();
    nodes.push(vec![Value::Integer(100)]);
    db.bulk_insert("n", nodes).unwrap();
    // A cheap 70-hop chain 0 -> 1 -> ... -> 70, and a dear 2-hop detour via 100.
    let road = |id: i64, src: i64, dst: i64, w: f64| {
        vec![Value::Integer(id), Value::Integer(src), Value::Integer(dst), Value::Double(w)]
    };
    let mut roads: Vec<Vec<Value>> = (0..70i64).map(|i| road(i, i, i + 1, 0.01)).collect();
    roads.push(road(1000, 0, 100, 50.0));
    roads.push(road(1001, 100, 70, 50.0));
    db.bulk_insert("r", roads).unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM n \
         EDGES(ID = id, FROM = src, TO = dst, w = w) FROM r",
    )
    .unwrap();
    let shortest = |bound: i64| {
        let rs = db
            .execute(&format!(
                "SELECT PS.Length, PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
                 WHERE PS.StartVertex.Id = 0 AND PS.EndVertex.Id = 70 \
                 AND PS.Length <= {bound} LIMIT 1"
            ))
            .unwrap();
        assert_eq!(rs.rows.len(), 1, "Length <= {bound} found no path");
        (rs.rows[0][0].as_integer().unwrap(), rs.rows[0][1].as_double().unwrap())
    };
    for bound in [63, 64, 65, 69] {
        let (len, cost) = shortest(bound);
        assert_eq!(len, 2, "Length <= {bound}");
        assert!((cost - 100.0).abs() < 1e-9, "Length <= {bound}: cost {cost}");
    }
    for bound in [70, 100] {
        let (len, cost) = shortest(bound);
        assert_eq!(len, 70, "Length <= {bound}");
        assert!((cost - 0.7).abs() < 1e-9, "Length <= {bound}: cost {cost}");
    }
}

/// A constant-anchored path scan searches on its first `next()`, but its
/// anchors and pushed predicates are still evaluated while the operator
/// tree is built: a statement whose parent never pulls (`LIMIT 0`) is
/// refused exactly as one that does.
#[test]
fn path_scan_anchor_errors_surface_even_when_the_scan_is_never_pulled() {
    let db = road_db();
    for limit in [0, 1] {
        for bad in [
            "PS.StartVertex.Id = 1/0 AND PS.EndVertex.Id = 2",
            "PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 2 AND PS.Edges[0..*].distance > 1/0",
        ] {
            let err = db
                .execute(&format!(
                    "SELECT PS.Length FROM RoadNetwork.Paths PS WHERE {bad} LIMIT {limit}"
                ))
                .expect_err(&format!("{bad} LIMIT {limit}"));
            assert!(matches!(err, Error::Execution(_)), "{bad} LIMIT {limit}: {err:?}");
        }
    }
}

// ---------------------------------------------------------------------------
// Path property / aggregate surface
// ---------------------------------------------------------------------------

#[test]
fn unexposed_attribute_is_an_analysis_error() {
    let db = road_db();
    // `dst` is a source column but not an exposed edge attribute.
    let err = db
        .execute(
            "SELECT PS.Length FROM RoadNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 AND PS.Edges[0].dst = 2",
        )
        .unwrap_err();
    assert!(matches!(err, Error::Analysis(_)), "{err}");
}

#[test]
fn indexed_id_projections() {
    let db = road_db();
    let rs = db
        .execute(
            "SELECT PS.Edges[0], PS.Vertexes[0], PS.Edges[1], PS.Vertexes[2] \
             FROM RoadNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 AND PS.Vertexes[1].Id = 2",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::Integer(100)); // edge 1->2
    assert_eq!(rs.rows[0][1], Value::Integer(1));
    assert_eq!(rs.rows[0][2], Value::Integer(101)); // edge 2->4
    assert_eq!(rs.rows[0][3], Value::Integer(4));
}

#[test]
fn path_property_projection_values() {
    let db = road_db();
    let rs = db
        .execute(
            "SELECT PS.Length, PS.StartVertex.Id, PS.EndVertex.Id, PS.PathString, \
             PS.Edges[0].distance, PS.Vertexes[1].address \
             FROM RoadNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 AND PS.EndVertex.Id = 4 \
             AND PS.Vertexes[1].Id = 2",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    let row = &rs.rows[0];
    assert_eq!(row[0], Value::Integer(2));
    assert_eq!(row[1], Value::Integer(1));
    assert_eq!(row[2], Value::Integer(4));
    assert_eq!(row[3], Value::text("1->2->4"));
    assert_eq!(row[4], Value::Double(1.0));
    assert_eq!(row[5], Value::text("Address 2"));
}

#[test]
fn path_aggregates_sum_min_max_avg_count() {
    let db = road_db();
    let rs = db
        .execute(
            "SELECT SUM(PS.Edges.distance), MIN(PS.Edges.distance), MAX(PS.Edges.distance), \
             AVG(PS.Edges.distance), COUNT(PS.Edges.distance) \
             FROM RoadNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 AND PS.Length = 2 \
             AND PS.Vertexes[1].Id = 3",
        )
        .unwrap();
    let row = &rs.rows[0];
    assert_eq!(row[0], Value::Double(6.0));
    assert_eq!(row[1], Value::Double(1.0));
    assert_eq!(row[2], Value::Double(5.0));
    assert_eq!(row[3], Value::Double(3.0));
    assert_eq!(row[4], Value::Integer(2));
}

#[test]
fn path_aggregate_predicate_prunes() {
    let db = road_db();
    // All 1→4 paths of length ≤ 2 with total distance < 3: only 1->2->4.
    let rs = db
        .execute(
            "SELECT PS.PathString FROM RoadNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4 \
             AND PS.Length <= 2 AND SUM(PS.Edges.distance) < 3",
        )
        .unwrap();
    assert_eq!(texts(&rs), vec!["1->2->4"]);
}

#[test]
fn fanin_fanout_path_vertex_attrs() {
    let db = road_db();
    let rs = db
        .execute(
            "SELECT PS.Vertexes[1].fanOut, PS.Vertexes[1].fanIn FROM RoadNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 AND PS.Vertexes[1].Id = 4",
        )
        .unwrap();
    // vertex 4: out-edges {105}, in-edges {101, 103, 104}
    assert_eq!(rs.rows[0][0], Value::Integer(1));
    assert_eq!(rs.rows[0][1], Value::Integer(3));
}

// ---------------------------------------------------------------------------
// Graph updates (§3.3)
// ---------------------------------------------------------------------------

#[test]
fn topology_updates_on_dml() {
    let db = social_db();
    let before = db.graph_stats("SocialNetwork").unwrap();
    assert_eq!((before.vertex_count, before.edge_count), (4, 4));

    db.execute("INSERT INTO Users VALUES (5, 'New', '2000-01-01', 'Chef')")
        .unwrap();
    db.execute("INSERT INTO Relationships VALUES (14, 4, 5, 2020, false)")
        .unwrap();
    let s = db.graph_stats("SocialNetwork").unwrap();
    assert_eq!((s.vertex_count, s.edge_count), (5, 5));

    // New vertex is reachable.
    let rs = db
        .execute(
            "SELECT PS.PathString FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 5 LIMIT 1",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);

    // Deleting an edge updates the topology.
    db.execute("DELETE FROM Relationships WHERE relId = 14")
        .unwrap();
    let s = db.graph_stats("SocialNetwork").unwrap();
    assert_eq!(s.edge_count, 4);
    let rs = db
        .execute(
            "SELECT PS.PathString FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 5 LIMIT 1",
        )
        .unwrap();
    assert!(rs.rows.is_empty());

    // Now the isolated vertex can go too.
    db.execute("DELETE FROM Users WHERE uId = 5").unwrap();
    assert_eq!(db.graph_stats("SocialNetwork").unwrap().vertex_count, 4);
}

#[test]
fn vertex_delete_with_incident_edges_is_rejected_and_rolled_back() {
    let db = social_db();
    let err = db.execute("DELETE FROM Users WHERE uId = 1").unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err}");
    // Storage unchanged (statement rolled back).
    assert_eq!(db.table_len("Users").unwrap(), 4);
    assert_eq!(db.graph_stats("SocialNetwork").unwrap().vertex_count, 4);
}

#[test]
fn edge_insert_with_dangling_endpoint_rolls_back_row() {
    let db = social_db();
    let err = db
        .execute("INSERT INTO Relationships VALUES (20, 1, 99, 2020, false)")
        .unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err}");
    assert_eq!(db.table_len("Relationships").unwrap(), 4);
    assert_eq!(db.graph_stats("SocialNetwork").unwrap().edge_count, 4);
}

#[test]
fn attribute_update_leaves_topology_untouched_but_visible() {
    let db = social_db();
    db.execute("UPDATE Users SET lName = 'Smythe' WHERE uId = 1")
        .unwrap();
    // Traversal sees the new attribute through the tuple pointer.
    let rs = db
        .execute(
            "SELECT PS.StartVertex.lstName FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.Length = 1 LIMIT 1",
        )
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::text("Smythe"));
}

#[test]
fn vertex_id_update_renames_and_cascades() {
    let db = social_db();
    db.execute("UPDATE Users SET uId = 100 WHERE uId = 1").unwrap();
    // Edge source rows cascaded.
    let rs = db
        .execute("SELECT relId FROM Relationships WHERE uId1 = 100 OR uId2 = 100")
        .unwrap();
    assert_eq!(rs.rows.len(), 2); // edges 10 and 13
    // Topology renamed: traversal from 100 works.
    let rs = db
        .execute(
            "SELECT PS.EndVertex.Id FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 100 AND PS.Length = 1",
        )
        .unwrap();
    assert_eq!(texts(&rs), vec!["2", "4"]);
}

#[test]
fn edge_endpoint_update_relinks() {
    let db = social_db();
    // Move edge 10 from (1,2) to (1,3).
    db.execute("UPDATE Relationships SET uId2 = 3 WHERE relId = 10")
        .unwrap();
    let rs = db
        .execute(
            "SELECT PS.EndVertex.Id FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 2 AND PS.Length = 1",
        )
        .unwrap();
    assert_eq!(texts(&rs), vec!["3"]); // only edge 11 remains at vertex 2
}

#[test]
fn multi_row_endpoint_update_rolls_back_relinked_edges() {
    // A multi-row UPDATE that relinks several edges must be all-or-nothing:
    // if a later row's new endpoint does not exist, the earlier rows' already
    // relinked topology edges AND their storage rows must be restored.
    let db = Database::new();
    db.execute("CREATE TABLE V (id INTEGER PRIMARY KEY)").unwrap();
    db.execute("CREATE TABLE E (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER)")
        .unwrap();
    db.execute("INSERT INTO V VALUES (1), (2), (3), (4)").unwrap();
    // Edge 10: 1→2, edge 11: 3→4.
    db.execute("INSERT INTO E VALUES (10, 1, 2), (11, 3, 4)").unwrap();
    db.execute(
        "CREATE DIRECTED GRAPH VIEW G VERTEXES(ID = id) FROM V \
         EDGES(ID = id, FROM = a, TO = b) FROM E",
    )
    .unwrap();

    // b+2 relinks edge 10 to 1→4 (valid), then edge 11 to 3→6 — vertex 6
    // does not exist, so the whole statement must abort.
    let err = db.execute("UPDATE E SET b = b + 2").unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err}");

    // Storage rows restored.
    let rs = db.execute("SELECT b FROM E WHERE id = 10").unwrap();
    assert_eq!(rs.rows[0][0], Value::Integer(2));
    let rs = db.execute("SELECT b FROM E WHERE id = 11").unwrap();
    assert_eq!(rs.rows[0][0], Value::Integer(4));

    // Topology restored: 1 still reaches only 2 in one hop (not 4).
    let rs = db
        .execute(
            "SELECT PS.EndVertex.Id FROM G.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.Length = 1",
        )
        .unwrap();
    assert_eq!(texts(&rs), vec!["2"]);
    let rs = db
        .execute(
            "SELECT PS.EndVertex.Id FROM G.Paths PS \
             WHERE PS.StartVertex.Id = 3 AND PS.Length = 1",
        )
        .unwrap();
    assert_eq!(texts(&rs), vec!["4"]);
    assert_eq!(db.graph_stats("G").unwrap().edge_count, 2);
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

#[test]
fn explicit_transaction_commit_and_rollback() {
    let db = social_db();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO Users VALUES (5, 'Tx', 'x', 'y')")
        .unwrap();
    db.execute("INSERT INTO Relationships VALUES (20, 5, 1, 2024, false)")
        .unwrap();
    assert_eq!(db.graph_stats("SocialNetwork").unwrap().vertex_count, 5);
    db.execute("ROLLBACK").unwrap();
    assert_eq!(db.table_len("Users").unwrap(), 4);
    assert_eq!(db.table_len("Relationships").unwrap(), 4);
    let s = db.graph_stats("SocialNetwork").unwrap();
    assert_eq!((s.vertex_count, s.edge_count), (4, 4));

    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO Users VALUES (5, 'Tx', 'x', 'y')")
        .unwrap();
    db.execute("COMMIT").unwrap();
    assert_eq!(db.table_len("Users").unwrap(), 5);
}

#[test]
fn failed_statement_in_transaction_keeps_earlier_work() {
    let db = social_db();
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO Users VALUES (5, 'Keep', 'x', 'y')")
        .unwrap();
    // Fails (duplicate pk) — only this statement rolls back.
    assert!(db
        .execute("INSERT INTO Users VALUES (5, 'Dup', 'x', 'y')")
        .is_err());
    db.execute("COMMIT").unwrap();
    assert_eq!(db.table_len("Users").unwrap(), 5);
}

#[test]
fn transaction_control_errors() {
    let db = social_db();
    assert!(db.execute("COMMIT").is_err());
    assert!(db.execute("ROLLBACK").is_err());
    db.execute("BEGIN").unwrap();
    assert!(db.execute("BEGIN").is_err());
    db.execute("COMMIT").unwrap();
}

// ---------------------------------------------------------------------------
// Relational engine behaviours
// ---------------------------------------------------------------------------

#[test]
fn joins_aggregates_order_limit() {
    let db = social_db();
    let rs = db
        .execute(
            "SELECT U.job, COUNT(*) FROM Users U GROUP BY U.job \
             HAVING COUNT(*) >= 1 ORDER BY U.job",
        )
        .unwrap();
    let rows: Vec<(String, i64)> = rs
        .rows
        .iter()
        .map(|r| (r[0].to_string(), r[1].as_integer().unwrap()))
        .collect();
    assert_eq!(
        rows,
        vec![
            ("Doctor".into(), 1),
            ("Engineer".into(), 1),
            ("Lawyer".into(), 2)
        ]
    );

    // Join users to relationships.
    let rs = db
        .execute(
            "SELECT U.lName, R.relId FROM Users U, Relationships R \
             WHERE U.uId = R.uId1 ORDER BY R.relId",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 4);
    assert_eq!(rs.rows[0][0], Value::text("Smith"));

    let rs = db
        .execute("SELECT uId FROM Users ORDER BY uId DESC LIMIT 2")
        .unwrap();
    assert_eq!(
        rs.rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
        vec![Value::Integer(4), Value::Integer(3)]
    );
}

/// After GROUP BY, HAVING takes every predicate form WHERE takes.
#[test]
fn having_between_and_in_over_an_aggregate() {
    let db = social_db();
    db.execute(
        "INSERT INTO Users VALUES (5, 'Lee', '1990-01-01', 'Doctor'), \
         (6, 'Ray', '1990-01-01', 'Doctor'), (7, 'Kim', '1990-01-01', 'Doctor')",
    )
    .unwrap();
    // Doctor 4, Engineer 1, Lawyer 2.
    let jobs = |having: &str| -> Vec<String> {
        let sql = format!("SELECT job FROM Users GROUP BY job HAVING {having} ORDER BY job");
        let rs = db.execute(&sql).unwrap();
        rs.rows.iter().map(|r| r[0].to_string()).collect()
    };
    assert_eq!(jobs("COUNT(*) BETWEEN 1 AND 3"), ["Engineer", "Lawyer"]);
    assert_eq!(jobs("COUNT(*) NOT BETWEEN 1 AND 3"), ["Doctor"]);
    assert_eq!(jobs("COUNT(*) IN (1, 2)"), ["Engineer", "Lawyer"]);
    assert_eq!(jobs("COUNT(*) NOT IN (1, 2)"), ["Doctor"]);
    assert_eq!(
        jobs("job IN ('Lawyer', 'Nurse') OR COUNT(*) > 3"),
        ["Doctor", "Lawyer"]
    );
}

#[test]
fn select_star_and_aliases() {
    let db = social_db();
    let rs = db.execute("SELECT * FROM Users WHERE uId = 1").unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.schema.len(), 4);
    let rs = db
        .execute("SELECT lName AS surname FROM Users WHERE uId = 2")
        .unwrap();
    assert_eq!(rs.schema.column(0).name, "surname");
    assert_eq!(rs.rows[0][0], Value::text("Jones"));
}

#[test]
fn arithmetic_between_in_not() {
    let db = social_db();
    let rs = db
        .execute("SELECT uId * 10 + 1 FROM Users WHERE uId BETWEEN 2 AND 3 ORDER BY uId")
        .unwrap();
    assert_eq!(
        rs.rows.iter().map(|r| r[0].clone()).collect::<Vec<_>>(),
        vec![Value::Integer(21), Value::Integer(31)]
    );
    let rs = db
        .execute("SELECT uId FROM Users WHERE job IN ('Lawyer', 'Doctor') AND NOT uId = 1 ORDER BY uId")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    let rs = db
        .execute("SELECT uId FROM Users WHERE job NOT IN ('Lawyer') ORDER BY uId")
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
}

#[test]
fn edge_scan_source() {
    let db = social_db();
    let rs = db
        .execute(
            "SELECT ES.id, ES.from, ES.to FROM SocialNetwork.Edges ES \
             WHERE ES.relative = true ORDER BY ES.id",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 2);
    assert_eq!(rs.rows[0][0], Value::Integer(10));
    assert_eq!(rs.rows[1][0], Value::Integer(13));
}

#[test]
fn path_self_join() {
    let db = road_db();
    // Join two path sets: P2 starts where P1 ends.
    let rs = db
        .execute(
            "SELECT P1.PathString, P2.PathString \
             FROM RoadNetwork.Paths P1, RoadNetwork.Paths P2 \
             WHERE P1.StartVertex.Id = 1 AND P1.Length = 1 AND P1.EndVertex.Id = 2 \
             AND P2.StartVertex.Id = P1.EndVertex.Id AND P2.Length = 1",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0][0], Value::text("1->2"));
    assert_eq!(rs.rows[0][1], Value::text("2->4"));
}

// ---------------------------------------------------------------------------
// Optimizer behaviours
// ---------------------------------------------------------------------------

#[test]
fn ablation_flags_do_not_change_results() {
    use grfusion::{OptimizerFlags, TraversalChoice};
    let query = "SELECT PS.PathString FROM SocialNetwork.Paths PS \
                 WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 \
                 AND PS.Edges[0..*].startYear > 2000";
    let reference = {
        let db = social_db();
        texts(&db.execute(query).unwrap())
    };
    let variants = [
        OptimizerFlags {
            predicate_pushdown: false,
            ..Default::default()
        },
        OptimizerFlags {
            length_inference: false,
            ..Default::default()
        },
        OptimizerFlags {
            lazy_path_scan: false,
            ..Default::default()
        },
        OptimizerFlags {
            aggregate_pushdown: false,
            ..Default::default()
        },
        OptimizerFlags {
            traversal: TraversalChoice::Dfs,
            ..Default::default()
        },
        OptimizerFlags {
            traversal: TraversalChoice::Bfs,
            ..Default::default()
        },
    ];
    for flags in variants {
        let db = social_db();
        db.set_config(EngineConfig {
            optimizer: flags,
            ..Default::default()
        });
        assert_eq!(texts(&db.execute(query).unwrap()), reference, "{flags:?}");
    }
}

/// The start anchor and the `Length` bounds are consumed by the scan — no
/// residual filter re-checks them — so the scan must enforce them exactly
/// as the filter would have, including at the values a seed lookup or a
/// `usize` window could round: a non-integral or NULL anchor names no
/// vertex, a negative upper bound admits no length, a negative lower bound
/// admits every length. With `length_inference` off the bounds are checked
/// by the residual filter instead; the two must agree.
#[test]
fn consumed_anchor_and_length_conjuncts_are_exact() {
    let cases: [(&str, &[&str]); 10] = [
        ("PS.StartVertex.Id = 4", &["4", "4->5"]),
        ("PS.StartVertex.Id = 4.0", &["4", "4->5"]),
        ("4 = PS.StartVertex.Id AND PS.Length >= 1", &["4->5"]),
        ("PS.StartVertex.Id = 4.5", &[]),
        ("PS.StartVertex.Id = NULL", &[]),
        ("PS.StartVertex.Id = 4 AND PS.StartVertex.Id = 5", &[]),
        ("PS.StartVertex.Id = 4 AND PS.Length > -1", &["4", "4->5"]),
        ("PS.StartVertex.Id = 4 AND PS.Length < 0", &[]),
        ("PS.StartVertex.Id = 4 AND PS.Length BETWEEN -2 AND 0", &["4"]),
        ("PS.StartVertex.Id = 4 AND -1 >= PS.Length", &[]),
    ];
    for length_inference in [true, false] {
        let db = road_db();
        let mut cfg = db.config();
        cfg.optimizer.length_inference = length_inference;
        db.set_config(cfg);
        for (predicate, expected) in cases {
            let paths: Vec<String> = expected.iter().map(|p| p.to_string()).collect();
            for (select, want) in [
                ("PS.PathString", paths.clone()),
                ("COUNT(PS)", vec![paths.len().to_string()]),
            ] {
                let sql = format!("SELECT {select} FROM RoadNetwork.Paths PS WHERE {predicate}");
                assert_eq!(
                    texts(&db.execute(&sql).unwrap()),
                    want,
                    "length_inference={length_inference}: {sql}"
                );
            }
        }
    }
}

/// A conjunct equating the start and end vertexes over an exact window is
/// consumed as a closing scan, in every spelling `compile` accepts for
/// those ids; the scan must count exactly what the residual filter would.
/// On the social graph plus chord 1–3 (triangles {1,2,3} and {1,3,4}, one
/// 4-cycle) each triangle closes from 3 seeds × 2 directions.
#[test]
fn consumed_closing_conjunct_is_exact() {
    let cases: [(&str, bool, i64); 12] = [
        ("P.Length = 3 AND P.Edges[2].EndVertex = P.Edges[0].StartVertex", true, 12),
        ("P.Edges[0].StartVertex = P.Edges[2].EndVertex AND P.Length = 3", true, 12),
        ("P.Length = 3 AND P.EndVertex.Id = P.StartVertex.Id", true, 12),
        ("P.Length = 3 AND P.StartVertexId = P.EndVertex", true, 12),
        ("P.Length = 3 AND P.Vertexes[3].Id = P.Vertexes[0]", true, 12),
        ("P.Length = 4 AND P.Edges[3].EndVertex = P.StartVertex.Id", true, 8),
        ("P.StartVertex.Id = 1 AND P.Length = 3 AND P.EndVertex = P.StartVertex", true, 4),
        ("P.Length = 3 AND P.EndVertex.Id = 1 AND P.StartVertex.Id = P.EndVertex.Id", true, 4),
        // Not the last hop, not an exact window, no window at all.
        ("P.Length = 3 AND P.Edges[1].EndVertex = P.Edges[0].StartVertex", false, 0),
        ("P.Length >= 2 AND P.Length <= 3 AND P.EndVertex.Id = P.StartVertex.Id", false, 12),
        ("P.Edges[2].EndVertex = P.Edges[0].StartVertex", false, 12),
        ("P.Length = 3 AND P.EndVertex.Id = P.StartVertex.Id + 0", false, 12),
    ];
    for length_inference in [true, false] {
        let db = social_db();
        db.execute("INSERT INTO Relationships VALUES (14, 3, 1, 2011, false)")
            .unwrap();
        let mut cfg = db.config();
        cfg.optimizer.length_inference = length_inference;
        db.set_config(cfg);
        for (predicate, closes, want) in cases {
            for hint in ["", "HINT(DFS)", "HINT(BFS)"] {
                let sql = format!("SELECT COUNT(P) FROM SocialNetwork.Paths P {hint} WHERE {predicate}");
                let plan = db.explain(&sql).unwrap();
                assert_eq!(
                    plan.contains(", closing"),
                    closes && length_inference,
                    "length_inference={length_inference}: {sql}\n{plan}"
                );
                assert_eq!(
                    db.execute(&sql).unwrap().scalar(),
                    Some(&Value::Integer(want)),
                    "length_inference={length_inference}: {sql}"
                );
            }
        }
    }
}

/// The rows of `sql`, sorted, with one optimizer flag changed from the
/// default by `change`.
fn sorted_texts_with(
    db: &Database,
    sql: &str,
    change: impl FnOnce(&mut grfusion::OptimizerFlags),
) -> Vec<String> {
    let mut cfg = db.config();
    let saved = cfg.clone();
    change(&mut cfg.optimizer);
    db.set_config(cfg);
    let rs = db.execute(sql).unwrap();
    db.set_config(saved);
    let mut rows: Vec<String> = rs
        .rows
        .iter()
        .map(|r| {
            r.iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect();
    rows.sort();
    rows
}

/// §6.1 raises the window's minimum only from a position the conjunct
/// cannot be TRUE without: never from one under `OR` or `NOT`, in an `IN`
/// list, or as a `NOT BETWEEN` bound, where a missing element (NULL) can
/// still leave the conjunct TRUE. Each query must return what it returns
/// with length inference off.
#[test]
fn implicit_length_minimum_respects_or_not_and_in_lists() {
    let db = road_db();
    for predicate in [
        "PS.Length <= 3 AND (PS.Edges[2].distance = 99 OR PS.Length = 1)",
        "PS.Length <= 3 AND NOT (PS.Edges[1..*].distance > 0)",
        "PS.Length <= 3 AND 5 IN (PS.Edges[2].distance, 5)",
        "PS.Length <= 3 AND (PS.Edges[1..*].distance > 100 OR PS.Length = 1)",
        "PS.Length <= 3 AND 5 NOT BETWEEN 10 AND PS.Edges[2].distance",
    ] {
        let sql = format!("SELECT PS.PathString FROM RoadNetwork.Paths PS WHERE {predicate}");
        let want = sorted_texts_with(&db, &sql, |o| o.length_inference = false);
        assert!(want.iter().any(|p| p == "1->2"), "{sql}: {want:?}");
        assert_eq!(sorted_texts_with(&db, &sql, |_| {}), want, "{sql}");
    }
}

/// A running-SUM bound prunes a prefix only while the attribute holds no
/// negative value: on the chain 1->2->3->4 weighted 8, 5, −6 the prefix
/// 8 + 5 is over the bound, yet the whole path sums to 7.
#[test]
fn running_sum_bound_keeps_paths_that_come_back_under_it() {
    let db = Database::new();
    db.execute_script(
        "CREATE TABLE n (id INTEGER PRIMARY KEY); \
         CREATE TABLE l (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w INTEGER); \
         INSERT INTO n VALUES (1), (2), (3), (4); \
         INSERT INTO l VALUES (1, 1, 2, 8), (2, 2, 3, 5), (3, 3, 4, -6); \
         CREATE DIRECTED GRAPH VIEW chain VERTEXES(ID = id) FROM n \
         EDGES(ID = id, FROM = a, TO = b, w = w) FROM l",
    )
    .unwrap();
    for bound in [
        "SUM(PS.Edges.w) < 10",
        "10 > SUM(PS.Edges.w)",
        "SUM(PS.Edges.w) <= 7",
    ] {
        let sql =
            format!("SELECT PS.PathString FROM chain.Paths PS WHERE PS.Length = 3 AND {bound}");
        assert_eq!(
            sorted_texts_with(&db, &sql, |_| {}),
            ["1->2->3->4"],
            "{sql}"
        );
        assert_eq!(
            sorted_texts_with(&db, &sql, |o| o.aggregate_pushdown = false),
            ["1->2->3->4"],
            "{sql}"
        );
    }
}

/// A standalone path scan (no start anchor on the outer row) binds its
/// pushed predicates and its end anchor against no row, so a comparand
/// that reads an outer column stays in the residual filter instead.
#[test]
fn outer_columns_reach_a_path_scan_only_through_its_probe() {
    let db = social_db();
    for sql in [
        "SELECT U.uId, PS.PathString FROM Users U, SocialNetwork.Paths PS \
         WHERE PS.Edges[0..*].startYear > U.uId + 1998 AND PS.Length = 1",
        "SELECT U.uId, PS.PathString FROM Users U, SocialNetwork.Paths PS \
         WHERE PS.StartVertex.Id = 1 AND PS.Edges[0].startYear IN (U.uId + 2000, 1) \
         AND PS.Length = 1",
        "SELECT U.uId, PS.PathString FROM Users U, SocialNetwork.Paths PS \
         WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = U.uId \
         AND SUM(PS.Edges.startYear) < U.uId * 1000 AND PS.Length <= 2",
        "SELECT U.uId, PS.Length FROM Users U, SocialNetwork.Paths PS \
         WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = U.uId AND U.uId = 3 LIMIT 1",
    ] {
        let want = sorted_texts_with(&db, sql, |o| {
            o.predicate_pushdown = false;
            o.aggregate_pushdown = false;
        });
        assert!(!want.is_empty(), "{sql}");
        assert_eq!(sorted_texts_with(&db, sql, |_| {}), want, "{sql}");
    }
}

/// The `LIMIT 1` reachability fast path returns the hop-minimal path, so
/// every conjunct on the path must hold for all paths between the anchors
/// or be enforced by the search. A vertex compared with anything but the
/// outer row is not an anchor, and a `Length` bound is only enforced when
/// length inference folds it into the window.
#[test]
fn reachability_needs_every_path_conjunct_enforced() {
    let db = road_db();
    // 1->4 direct (length 1), 1->2->4 and 1->3->4 (length 2).
    let anchored = "SELECT PS.Length FROM RoadNetwork.Paths PS \
                    WHERE PS.StartVertex.Id = 1 AND PS.EndVertex.Id = 4";
    let sql = format!("{anchored} AND PS.StartVertex.Id = PS.Length - 1 LIMIT 1");
    assert_eq!(sorted_texts_with(&db, &sql, |_| {}), ["2"], "{sql}");
    let sql = format!("{anchored} AND PS.Length >= 2 LIMIT 1");
    for length_inference in [true, false] {
        let rows = sorted_texts_with(&db, &sql, |o| o.length_inference = length_inference);
        assert_eq!(rows, ["2"], "length_inference={length_inference}: {sql}");
    }
}

#[test]
fn explain_shows_cross_model_pipeline() {
    let db = social_db();
    let plan = db
        .explain(
            "SELECT PS.EndVertex.lstName FROM Users U, SocialNetwork.Paths PS \
             WHERE U.job = 'Lawyer' AND PS.StartVertex.Id = U.uId AND PS.Length = 2",
        )
        .unwrap();
    assert!(plan.contains("PathJoin"), "{plan}");
    assert!(plan.contains("TableScan(users, filtered)"), "{plan}");
    assert!(plan.contains("len 2..=2"), "{plan}");
}

#[test]
fn index_lookup_used_for_pk_equality() {
    let db = social_db();
    let plan = db
        .explain("SELECT lName FROM Users WHERE uId = 2")
        .unwrap();
    assert!(plan.contains("IndexLookup(users)"), "{plan}");
    let rs = db.execute("SELECT lName FROM Users WHERE uId = 2").unwrap();
    assert_eq!(rs.rows[0][0], Value::text("Jones"));
}

#[test]
fn index_join_used_for_correlated_pk_equality() {
    let db = social_db();
    let plan = db
        .explain(
            "SELECT U.lName, R.relId FROM Relationships R, Users U \
             WHERE U.uId = R.uId1 AND R.startYear > 2000",
        )
        .unwrap();
    assert!(plan.contains("IndexJoin(users)"), "{plan}");
    let rs = db
        .execute(
            "SELECT U.lName, R.relId FROM Relationships R, Users U \
             WHERE U.uId = R.uId1 AND R.startYear > 2000 ORDER BY R.relId",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 3); // edges 10, 12, 13
    assert_eq!(rs.rows[0][0], Value::text("Smith"));
    assert_eq!(rs.rows[1][0], Value::text("Parker"));
}

#[test]
fn sqlgraph_style_hop_joins_agree_with_pathscan() {
    // The Native Relational-Core shape: two self-joins over an adjacency
    // table must find the same 2-hop neighbours as the PATHS construct.
    let db = social_db();
    // adjacency table (undirected → both directions), with a pk for probes
    db.execute(
        "CREATE TABLE Adj (aid INTEGER PRIMARY KEY, src INTEGER, dst INTEGER)",
    )
    .unwrap();
    db.execute("CREATE INDEX adj_src ON Adj (src)").unwrap();
    let rs = db
        .execute("SELECT relId, uId1, uId2 FROM Relationships ORDER BY relId")
        .unwrap();
    for (i, row) in rs.rows.iter().enumerate() {
        let (e, a, b) = (
            row[0].as_integer().unwrap(),
            row[1].as_integer().unwrap(),
            row[2].as_integer().unwrap(),
        );
        db.execute(&format!(
            "INSERT INTO Adj VALUES ({}, {a}, {b}), ({}, {b}, {a})",
            2 * i,
            2 * i + 1
        ))
        .unwrap();
        let _ = e;
    }
    let rel = db
        .execute(
            "SELECT e1.dst FROM Adj e0, Adj e1 \
             WHERE e0.src = 1 AND e1.src = e0.dst AND e1.dst <> 1 ORDER BY e1.dst",
        )
        .unwrap();
    let rel: Vec<i64> = rel.rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    let gr = db
        .execute(
            "SELECT PS.EndVertex.Id FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.Length = 2 ORDER BY PS.EndVertex.Id",
        )
        .unwrap();
    let gr: Vec<i64> = gr.rows.iter().map(|r| r[0].as_integer().unwrap()).collect();
    assert_eq!(rel, gr);
}

#[test]
fn resource_budget_aborts_join_blowup() {
    use grfusion::ExecLimits;
    let db = social_db();
    db.set_config(EngineConfig {
        limits: ExecLimits {
            max_intermediate_rows: Some(10),
        },
        ..Default::default()
    });
    // 4×4×4 cross join exceeds 10 intermediate rows.
    let err = db
        .execute("SELECT A.uId FROM Users A, Users B, Users C")
        .unwrap_err();
    assert!(matches!(err, Error::ResourceExhausted { .. }), "{err}");
}

#[test]
fn default_max_path_len_caps_unbounded_queries() {
    use grfusion::OptimizerFlags;
    let db = social_db();
    db.set_config(EngineConfig {
        optimizer: OptimizerFlags {
            default_max_path_len: 1,
            ..Default::default()
        },
        ..Default::default()
    });
    // No explicit length bound → capped at 1 hop.
    let rs = db
        .execute(
            "SELECT PS.PathString FROM SocialNetwork.Paths PS WHERE PS.StartVertex.Id = 1",
        )
        .unwrap();
    assert!(rs.rows.iter().all(|r| {
        !r[0].to_string().contains("->") || r[0].to_string().matches("->").count() == 1
    }));
}

// ---------------------------------------------------------------------------
// Error surface
// ---------------------------------------------------------------------------

#[test]
fn analysis_errors() {
    let db = social_db();
    assert!(db.execute("SELECT nope FROM Users").is_err());
    assert!(db.execute("SELECT * FROM Missing").is_err());
    assert!(db.execute("SELECT * FROM Missing.Paths P").is_err());
    assert!(db
        .execute("SELECT PS.Nope FROM SocialNetwork.Paths PS WHERE PS.Length = 1")
        .is_err());
    assert!(db
        .execute(
            "SELECT PS.PathString FROM SocialNetwork.Paths PS \
             HINT(SHORTESTPATH(distance)) WHERE PS.StartVertex.Id = 1"
        )
        .is_err()); // unknown cost attr + missing end anchor
    // ambiguous column across two bindings with same schema
    assert!(db
        .execute("SELECT uId FROM Users A, Users B")
        .is_err());
}

#[test]
fn ddl_errors() {
    let db = social_db();
    assert!(db
        .execute("CREATE TABLE Users (x INTEGER)")
        .is_err()); // duplicate
    assert!(db.execute("DROP TABLE Users").is_err()); // graph view depends on it
    db.execute("DROP GRAPH VIEW SocialNetwork").unwrap();
    db.execute("DROP TABLE Relationships").unwrap();
    assert!(db.execute("DROP GRAPH VIEW SocialNetwork").is_err());
}

#[test]
fn duplicate_graph_view_rejected() {
    let db = social_db();
    let err = db
        .execute(
            "CREATE GRAPH VIEW SocialNetwork VERTEXES(ID = uId) FROM Users \
             EDGES(ID = relId, FROM = uId1, TO = uId2) FROM Relationships",
        )
        .unwrap_err();
    assert!(matches!(err, Error::Catalog(_)));
}

#[test]
fn unanchored_path_scan_uses_all_vertexes() {
    let db = road_db();
    let rs = db
        .execute("SELECT COUNT(P) FROM RoadNetwork.Paths P WHERE P.Length = 1")
        .unwrap();
    // One path per directed edge.
    assert_eq!(rs.scalar(), Some(&Value::Integer(6)));
}

#[test]
fn join_on_syntax_desugars_to_comma_join() {
    let db = social_db();
    let a = db
        .execute(
            "SELECT U.lName, R.relId FROM Relationships R JOIN Users U ON U.uId = R.uId1 \
             WHERE R.startYear > 2000 ORDER BY R.relId",
        )
        .unwrap();
    let b = db
        .execute(
            "SELECT U.lName, R.relId FROM Relationships R, Users U \
             WHERE U.uId = R.uId1 AND R.startYear > 2000 ORDER BY R.relId",
        )
        .unwrap();
    assert_eq!(a.rows, b.rows);
    assert!(!a.rows.is_empty());
    // INNER JOIN spelling and chained joins.
    let c = db
        .execute(
            "SELECT A.lName, B.lName FROM Relationships R \
             INNER JOIN Users A ON A.uId = R.uId1 \
             INNER JOIN Users B ON B.uId = R.uId2 \
             ORDER BY R.relId",
        )
        .unwrap();
    assert_eq!(c.rows.len(), 4);
    assert_eq!(c.rows[0][0], Value::text("Smith"));
    assert_eq!(c.rows[0][1], Value::text("Jones"));
}

#[test]
fn join_on_with_graph_source() {
    let db = social_db();
    // JOIN syntax combines with a path source in the same FROM clause.
    let rs = db
        .execute(
            "SELECT PS.EndVertex.lstName FROM Users U JOIN SocialNetwork.Paths PS \
             ON PS.StartVertex.Id = U.uId \
             WHERE U.job = 'Lawyer' AND PS.Length = 2 ORDER BY PS.EndVertex.lstName",
        )
        .unwrap();
    let comma = db
        .execute(
            "SELECT PS.EndVertex.lstName FROM Users U, SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = U.uId AND U.job = 'Lawyer' AND PS.Length = 2 \
             ORDER BY PS.EndVertex.lstName",
        )
        .unwrap();
    assert_eq!(rs.rows, comma.rows);
}

#[test]
fn in_subquery_folds_and_filters() {
    let db = social_db();
    // Users who appear as an endpoint of a pre-2001 relationship: edge 11
    // (2-3, 1999).
    let rs = db
        .execute(
            "SELECT lName FROM Users WHERE uId IN \
             (SELECT uId1 FROM Relationships WHERE startYear < 2001) ORDER BY uId",
        )
        .unwrap();
    assert_eq!(texts(&rs), vec!["Jones"]);
    // NOT IN form.
    let rs = db
        .execute(
            "SELECT lName FROM Users WHERE uId NOT IN \
             (SELECT uId1 FROM Relationships WHERE startYear < 2001) ORDER BY uId",
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 3);
    // Subquery feeding a graph traversal: paths starting from lawyers.
    let rs = db
        .execute(
            "SELECT DISTINCT PS.StartVertex.Id FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id IN (SELECT uId FROM Users WHERE job = 'Lawyer') \
             AND PS.Length = 1 ORDER BY PS.StartVertex.Id",
        )
        .unwrap();
    assert_eq!(texts(&rs), vec!["1", "3"]);
    // Multi-column subqueries are rejected.
    assert!(db
        .execute("SELECT lName FROM Users WHERE uId IN (SELECT uId1, uId2 FROM Relationships)")
        .is_err());
}

#[test]
fn dml_with_in_subquery() {
    let db = social_db();
    // Delete relationships touching lawyers only on the uId1 side.
    let rs = db
        .execute(
            "DELETE FROM Relationships WHERE uId1 IN \
             (SELECT uId FROM Users WHERE job = 'Lawyer')",
        )
        .unwrap();
    assert_eq!(rs.rows_affected, 3); // edges 10 (1-2), 12 (3-4), 13 (1-4)
    assert_eq!(db.graph_stats("SocialNetwork").unwrap().edge_count, 1);
    // UPDATE with a subquery predicate.
    let rs = db
        .execute(
            "UPDATE Users SET job = 'Retired' WHERE uId IN \
             (SELECT uId2 FROM Relationships)",
        )
        .unwrap();
    assert_eq!(rs.rows_affected, 1); // remaining edge 11 points at user 3
    let rs = db
        .execute("SELECT lName FROM Users WHERE job = 'Retired'")
        .unwrap();
    assert_eq!(rs.rows[0][0], Value::text("Parker"));
}

#[test]
fn select_distinct() {
    let db = social_db();
    // Two lawyers → one distinct job row.
    let rs = db.execute("SELECT DISTINCT job FROM Users ORDER BY job").unwrap();
    assert_eq!(rs.rows.len(), 3);
    let rs = db
        .execute("SELECT DISTINCT job FROM Users WHERE job = 'Lawyer'")
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    // Distinct over graph output: 2-hop neighbours of vertex 1 reachable
    // along multiple paths collapse.
    db.execute("INSERT INTO Relationships VALUES (14, 3, 1, 2011, false)")
        .unwrap();
    let all = db
        .execute(
            "SELECT PS.EndVertex.Id FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 2 AND PS.Length = 2",
        )
        .unwrap();
    let distinct = db
        .execute(
            "SELECT DISTINCT PS.EndVertex.Id FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 2 AND PS.Length = 2",
        )
        .unwrap();
    assert!(distinct.rows.len() < all.rows.len());
}

#[test]
fn insert_into_select() {
    let db = social_db();
    db.execute("CREATE TABLE Lawyers (uId INTEGER PRIMARY KEY, lName VARCHAR)")
        .unwrap();
    let rs = db
        .execute("INSERT INTO Lawyers SELECT uId, lName FROM Users WHERE job = 'Lawyer'")
        .unwrap();
    assert_eq!(rs.rows_affected, 2);
    let rs = db.execute("SELECT lName FROM Lawyers ORDER BY uId").unwrap();
    assert_eq!(texts(&rs), vec!["Parker", "Smith"]);
    // With a column list; unlisted columns become NULL.
    db.execute("CREATE TABLE Names (n VARCHAR, extra INTEGER)").unwrap();
    db.execute("INSERT INTO Names (n) SELECT lName FROM Users WHERE uId = 1")
        .unwrap();
    let rs = db.execute("SELECT n, extra FROM Names").unwrap();
    assert_eq!(rs.rows[0][0], Value::text("Smith"));
    assert!(rs.rows[0][1].is_null());
    // Graph maintenance applies: INSERT..SELECT into a graph source.
    db.execute("CREATE TABLE Staging (relId INTEGER, u1 INTEGER, u2 INTEGER)")
        .unwrap();
    db.execute("INSERT INTO Staging VALUES (50, 2, 4)").unwrap();
    db.execute(
        "INSERT INTO Relationships SELECT relId, u1, u2, 2024 + 0, false FROM Staging",
    )
    .unwrap();
    assert_eq!(db.graph_stats("SocialNetwork").unwrap().edge_count, 5);
}

#[test]
fn insert_into_select_rolls_back_on_constraint_violation() {
    let db = social_db();
    db.execute("CREATE TABLE Copy (uId INTEGER PRIMARY KEY)").unwrap();
    db.execute("INSERT INTO Copy VALUES (1)").unwrap();
    // Selecting all users collides with the existing pk=1 → whole
    // statement rolls back.
    let err = db
        .execute("INSERT INTO Copy SELECT uId FROM Users")
        .unwrap_err();
    assert!(matches!(err, Error::Constraint(_)), "{err}");
    assert_eq!(db.table_len("Copy").unwrap(), 1);
}

#[test]
fn prepared_statements_bind_parameters() {
    let db = social_db();
    let q = db
        .prepare("SELECT lName FROM Users WHERE uId = ?")
        .unwrap();
    let rs = db.execute_prepared(&q, &[Value::Integer(2)]).unwrap();
    assert_eq!(rs.rows[0][0], Value::text("Jones"));
    let rs = db.execute_prepared(&q, &[Value::Integer(3)]).unwrap();
    assert_eq!(rs.rows[0][0], Value::text("Parker"));
    // The prepared plan still uses the pk index.
    assert!(q.explain().contains("IndexLookup(users)"), "{}", q.explain());
    // Missing parameters are an execution error.
    assert!(db.execute_prepared(&q, &[]).is_err());
}

#[test]
fn prepared_path_queries_with_parameters() {
    let db = social_db();
    let q = db
        .prepare(
            "SELECT PS.Length FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? \
             AND PS.Length <= 4 AND PS.Edges[0..*].startYear > ? LIMIT 1",
        )
        .unwrap();
    // 1 → 3 via edges with startYear > 2000: 1-4 (2010), 4-3 (2005).
    let rs = db
        .execute_prepared(
            &q,
            &[Value::Integer(1), Value::Integer(3), Value::Integer(2000)],
        )
        .unwrap();
    assert_eq!(rs.rows.len(), 1);
    // With a threshold above every edge, nothing qualifies.
    let rs = db
        .execute_prepared(
            &q,
            &[Value::Integer(1), Value::Integer(3), Value::Integer(2999)],
        )
        .unwrap();
    assert!(rs.rows.is_empty());
    // The reachability fast path applies to the parameterized plan too.
    assert!(q.explain().contains("reachability"), "{}", q.explain());
}

#[test]
fn prepared_plan_answers_match_adhoc_sql() {
    let db = social_db();
    let q = db
        .prepare(
            "SELECT PS.EndVertex.Id FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = ? AND PS.Length = 2 ORDER BY PS.EndVertex.Id",
        )
        .unwrap();
    for s in 1..=4 {
        let prepared = db.execute_prepared(&q, &[Value::Integer(s)]).unwrap();
        let adhoc = db
            .execute(&format!(
                "SELECT PS.EndVertex.Id FROM SocialNetwork.Paths PS \
                 WHERE PS.StartVertex.Id = {s} AND PS.Length = 2 ORDER BY PS.EndVertex.Id"
            ))
            .unwrap();
        assert_eq!(prepared.rows, adhoc.rows, "start {s}");
    }
}

#[test]
fn index_probe_coerces_numeric_types() {
    let db = social_db();
    // Double-valued key against the integer pk still hits via coercion.
    let rs = db.execute("SELECT lName FROM Users WHERE uId = 2.0").unwrap();
    assert_eq!(rs.rows.len(), 1);
    let rs = db.execute("SELECT lName FROM Users WHERE uId = 2.5").unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn script_execution() {
    let db = Database::new();
    let rs = db
        .execute_script(
            "CREATE TABLE t (a INTEGER); \
             INSERT INTO t VALUES (1), (2), (3); \
             SELECT COUNT(*) FROM t;",
        )
        .unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Integer(3)));
}

/// Prepare `sql` over `setup`, run `ddl`, and return the prepared
/// statement's result.
fn prepared_after_ddl(
    setup: &[&str],
    sql: &str,
    params: &[Value],
    ddl: &[&str],
) -> Result<grfusion::ResultSet, Error> {
    let db = Database::new();
    for s in setup {
        db.execute(s).unwrap();
    }
    let q = db.prepare(sql).unwrap();
    for s in ddl {
        db.execute(s).unwrap();
    }
    db.execute_prepared(&q, params)
}

fn assert_stale(result: Result<grfusion::ResultSet, Error>, object: &str) {
    match result {
        Err(Error::Catalog(msg)) => assert!(msg.contains(&format!("`{object}`")), "{msg}"),
        other => panic!("expected a catalog error naming `{object}`, got {other:?}"),
    }
}

const WIDE_T: &[&str] = &[
    "CREATE TABLE t (a INTEGER, b INTEGER, c INTEGER)",
    "INSERT INTO t VALUES (7, 0, 70)",
];

#[test]
fn prepared_plan_over_a_narrower_recreated_table_fails_with_a_catalog_error() {
    let ddl = [
        "DROP TABLE t",
        "CREATE TABLE t (a INTEGER PRIMARY KEY)",
        "INSERT INTO t VALUES (7)",
    ];
    let result = prepared_after_ddl(
        WIDE_T,
        "SELECT a, c FROM t WHERE c > ?",
        &[Value::Integer(1)],
        &ddl,
    );
    assert_stale(result, "t");
}

#[test]
fn prepared_plan_over_a_reordered_recreated_table_fails_with_a_catalog_error() {
    let ddl = [
        "DROP TABLE t",
        "CREATE TABLE t (a INTEGER, c INTEGER, b INTEGER)",
        "INSERT INTO t VALUES (7, 70, 0)",
    ];
    let result = prepared_after_ddl(
        WIDE_T,
        "SELECT a, c FROM t WHERE c > ?",
        &[Value::Integer(1)],
        &ddl,
    );
    assert_stale(result, "t");
}

const SWAP_G: &[&str] = &[
    "CREATE TABLE v (id INTEGER PRIMARY KEY)",
    "CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w INTEGER, tag VARCHAR)",
    "INSERT INTO v VALUES (1), (2)",
    "INSERT INTO e VALUES (10, 1, 2, 5, 'p')",
    "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
     EDGES(ID = id, FROM = a, TO = b, w = w, tag = tag) FROM e",
];

const SWAPPED: &[&str] = &[
    "DROP GRAPH VIEW g",
    "CREATE DIRECTED GRAPH VIEW g VERTEXES(ID = id) FROM v \
     EDGES(ID = id, FROM = a, TO = b, w = tag, tag = w) FROM e",
];

#[test]
fn prepared_edge_attribute_over_a_redefined_view_fails_with_a_catalog_error() {
    let sql = "SELECT PS.Edges[0].w FROM g.Paths PS WHERE PS.StartVertex.Id = ? AND PS.Length = 1";
    assert_stale(
        prepared_after_ddl(SWAP_G, sql, &[Value::Integer(1)], SWAPPED),
        "g",
    );
}

#[test]
fn prepared_shortest_path_over_a_redefined_view_fails_with_a_catalog_error() {
    let sql = "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(w)) \
               WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = 2";
    assert_stale(
        prepared_after_ddl(SWAP_G, sql, &[Value::Integer(1)], SWAPPED),
        "g",
    );
}

#[test]
fn prepared_plans_survive_ddl_on_other_objects() {
    let ddl = ["CREATE TABLE other (x INTEGER)", "DROP TABLE other"];
    let rs = prepared_after_ddl(
        WIDE_T,
        "SELECT a, c FROM t WHERE c > ?",
        &[Value::Integer(1)],
        &ddl,
    )
    .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Integer(7), Value::Integer(70)]]);
    let mut setup = SWAP_G.to_vec();
    setup.push("CREATE TABLE u (x INTEGER)");
    let ddl = ["CREATE TABLE other (x INTEGER)", "DROP TABLE u"];
    let sql = "SELECT PS.Cost, PS.Edges[0].tag FROM g.Paths PS HINT(SHORTESTPATH(w)) \
               WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = 2";
    let rs = prepared_after_ddl(&setup, sql, &[Value::Integer(1)], &ddl).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Double(5.0), Value::text("p")]]);
}

/// `CREATE GRAPH VIEW` over `v(id, age, name)` and `e(id, a, b, w)` with
/// the given mapping lists.
fn graph_view_with(vertexes: &str, edges: &str) -> Result<grfusion::ResultSet, Error> {
    let db = Database::new();
    db.execute("CREATE TABLE v (id INTEGER PRIMARY KEY, age INTEGER, name VARCHAR)")
        .unwrap();
    db.execute("CREATE TABLE e (id INTEGER PRIMARY KEY, a INTEGER, b INTEGER, w DOUBLE)")
        .unwrap();
    db.execute(&format!(
        "CREATE GRAPH VIEW g VERTEXES({vertexes}) FROM v EDGES({edges}) FROM e"
    ))
}

#[test]
fn graph_views_reject_exposed_names_that_shadow_synthesized_ones() {
    let edges = "ID = id, FROM = a, TO = b";
    for (vertexes, edges, name) in [
        ("ID = id, fanout = name", edges, "fanout"),
        ("ID = id, FanIn = age", edges, "fanin"),
        (
            "ID = id",
            "ID = id, FROM = a, TO = b, StartVertex = w",
            "startvertex",
        ),
        (
            "ID = id",
            "ID = id, FROM = a, TO = b, endvertex = w",
            "endvertex",
        ),
    ] {
        match graph_view_with(vertexes, edges) {
            Err(Error::Analysis(msg)) => assert!(msg.contains(&format!("`{name}`")), "{msg}"),
            other => panic!("{vertexes} / {edges}: expected an analysis error, got {other:?}"),
        }
    }
    // The names are reserved per element kind only.
    graph_view_with(
        "ID = id, startvertex = age",
        "ID = id, FROM = a, TO = b, fanout = w",
    )
    .unwrap();
}

#[test]
fn graph_views_reject_an_exposed_name_used_twice() {
    let edges = "ID = id, FROM = a, TO = b";
    for (vertexes, edges, name) in [
        ("ID = id, a = age, A = name", edges, "a"),
        ("ID = id", "ID = id, FROM = a, TO = b, w = w, W = a", "w"),
    ] {
        match graph_view_with(vertexes, edges) {
            Err(Error::Analysis(msg)) => assert!(msg.contains(&format!("`{name}`")), "{msg}"),
            other => panic!("{vertexes} / {edges}: expected an analysis error, got {other:?}"),
        }
    }
}

/// A running SUM over a hop's end reads the path, not the edge, so it is
/// not pushed into the traversal: it is evaluated, and answers.
#[test]
fn sum_over_hop_ends_is_evaluated_on_the_path() {
    let db = social_db();
    let rs = db
        .execute(
            "SELECT PS.PathString FROM SocialNetwork.Paths PS \
             WHERE PS.StartVertex.Id = 1 AND PS.Length <= 2 AND SUM(PS.Edges.StartVertex) < 3 \
             ORDER BY PS.PathString",
        )
        .unwrap();
    let paths: Vec<String> = rs.rows.iter().map(|r| r[0].to_string()).collect();
    assert_eq!(paths, vec!["1->2", "1->4"]);
}
