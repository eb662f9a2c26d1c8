//! SQLGraph-style baseline: the Native Relational-Core approach
//! (EDBT 2018 §1, Figure 1a; SQLGraph \[46\]).
//!
//! The graph is encoded into relational tables inside the *same* engine
//! GRFusion uses — a vertex table and an adjacency table with a hash index
//! on the source column — and graph queries are translated into plain SQL
//! whose traversals become chains of indexed relational self-joins, one
//! join per hop. This isolates the paper's variable: identical storage and
//! executor, but topology navigation through joins instead of through a
//! materialized native topology.
//!
//! Undirected datasets are encoded with both edge directions materialized
//! (the standard relational encoding), so a hop is always `src → dst`.

use grfusion::{Database, EngineConfig, ExecLimits};
use grfusion_common::{DataType, Error, Result, Row, Value};
use grfusion_datasets::Dataset;

use crate::GraphSystem;

/// The SQLGraph-style system: graph-in-tables + SQL translation.
pub struct SqlGraphSystem {
    db: Database,
    directed: bool,
}

impl SqlGraphSystem {
    /// Load without a resource budget.
    pub fn load(ds: &Dataset) -> Result<SqlGraphSystem> {
        Self::load_with_budget(ds, None)
    }

    /// Load with an intermediate-result budget, reproducing the paper's
    /// §7.2 observation that deep join chains exhaust temp memory (the
    /// Twitter DNFs): queries that exceed it fail with
    /// `Error::ResourceExhausted`.
    pub fn load_with_budget(
        ds: &Dataset,
        max_intermediate_rows: Option<u64>,
    ) -> Result<SqlGraphSystem> {
        Self::load_with(ds, EngineConfig {
            limits: ExecLimits {
                max_intermediate_rows,
            },
            ..Default::default()
        })
    }

    /// Load under an explicit engine configuration (budget, deadline).
    pub fn load_with(ds: &Dataset, config: EngineConfig) -> Result<SqlGraphSystem> {
        let db = Database::with_config(config);
        db.execute("CREATE TABLE sg_v (id INTEGER PRIMARY KEY)")?;
        let mut eddl =
            String::from("CREATE TABLE sg_adj (rowid INTEGER PRIMARY KEY, src INTEGER, dst INTEGER");
        for (name, ty) in &ds.edge_schema {
            let t = match ty {
                DataType::Integer => "INTEGER",
                DataType::Double => "DOUBLE",
                DataType::Boolean => "BOOLEAN",
                DataType::Varchar => "VARCHAR",
                DataType::Path => unreachable!(),
            };
            eddl.push_str(&format!(", {name} {t}"));
        }
        eddl.push(')');
        db.execute(&eddl)?;
        db.execute("CREATE INDEX sg_adj_src ON sg_adj (src)")?;

        let vrows: Vec<Row> = ds
            .vertices
            .iter()
            .map(|(id, _)| vec![Value::Integer(*id)])
            .collect();
        db.bulk_insert("sg_v", vrows)?;

        let mut erows: Vec<Row> = Vec::with_capacity(
            ds.edge_count() * if ds.directed { 1 } else { 2 },
        );
        let mut rowid = 0i64;
        for (_, from, to, attrs) in &ds.edges {
            let mut r = Vec::with_capacity(3 + attrs.len());
            r.push(Value::Integer(rowid));
            rowid += 1;
            r.push(Value::Integer(*from));
            r.push(Value::Integer(*to));
            r.extend(attrs.iter().cloned());
            erows.push(r);
            if !ds.directed {
                let mut r = Vec::with_capacity(3 + attrs.len());
                r.push(Value::Integer(rowid));
                rowid += 1;
                r.push(Value::Integer(*to));
                r.push(Value::Integer(*from));
                r.extend(attrs.iter().cloned());
                erows.push(r);
            }
        }
        db.bulk_insert("sg_adj", erows)?;

        Ok(SqlGraphSystem {
            db,
            directed: ds.directed,
        })
    }

    pub fn db(&self) -> &Database {
        &self.db
    }

    /// The translated SQL for an exact-`hops` reachability probe: one
    /// indexed self-join per hop (the Native Relational-Core cost model).
    fn hop_chain_sql(s: i64, t: i64, hops: usize, sel_lt: Option<i64>) -> String {
        debug_assert!(hops >= 1);
        let mut from = String::new();
        let mut wher = format!("e0.src = {s}");
        for i in 0..hops {
            if i > 0 {
                from.push_str(", ");
                wher.push_str(&format!(" AND e{i}.src = e{}.dst", i - 1));
            }
            from.push_str(&format!("sg_adj e{i}"));
            if let Some(k) = sel_lt {
                wher.push_str(&format!(" AND e{i}.sel < {k}"));
            }
        }
        wher.push_str(&format!(" AND e{}.dst = {t}", hops - 1));
        format!("SELECT e0.src FROM {from} WHERE {wher} LIMIT 1")
    }
}

impl GraphSystem for SqlGraphSystem {
    fn name(&self) -> &'static str {
        "sqlgraph"
    }

    fn reachable(&self, s: i64, t: i64, max_hops: usize, sel_lt: Option<i64>) -> Result<bool> {
        if s == t {
            return Ok(true);
        }
        // Iterative deepening: issue the depth-l join chain for l = 1..=H
        // (the SQL translation of a bounded Gremlin traversal). Join-chain
        // walks subsume simple paths, so this agrees with native BFS.
        for hops in 1..=max_hops {
            let sql = Self::hop_chain_sql(s, t, hops, sel_lt);
            if !self.db.execute(&sql)?.rows.is_empty() {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn shortest_path_cost(&self, _s: i64, _t: i64, _sel_lt: Option<i64>) -> Result<Option<f64>> {
        // The paper compares shortest paths against Grail, not SQLGraph
        // (§7.1); a single SQL statement cannot express Dijkstra.
        Err(Error::plan(
            "sqlgraph baseline does not support shortest-path queries (paper compares Grail)",
        ))
    }

    fn count_triangles(&self, sel_lt: i64) -> Result<u64> {
        // The classic 3-way self-join triangle plan.
        let sql = format!(
            "SELECT COUNT(*) FROM sg_adj e0, sg_adj e1, sg_adj e2 \
             WHERE e1.src = e0.dst AND e2.src = e1.dst AND e2.dst = e0.src \
             AND e0.sel < {sel_lt} AND e1.sel < {sel_lt} AND e2.sel < {sel_lt} \
             AND e0.src <> e0.dst AND e1.src <> e1.dst AND e0.src <> e1.dst"
        );
        let rs = self.db.execute(&sql)?;
        let closed = rs
            .scalar()
            .ok_or_else(|| Error::execution("COUNT returned no rows"))?
            .as_integer()? as u64;
        let norm = if self.directed { 3 } else { 6 };
        Ok(closed / norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grfusion_datasets::{protein, roads, Adjacency};

    #[test]
    fn chain_sql_shape() {
        let sql = SqlGraphSystem::hop_chain_sql(1, 9, 3, Some(50));
        assert!(sql.contains("sg_adj e0, sg_adj e1, sg_adj e2"));
        assert!(sql.contains("e1.src = e0.dst"));
        assert!(sql.contains("e2.dst = 9"));
        assert!(sql.contains("e1.sel < 50"));
        assert!(sql.ends_with("LIMIT 1"));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // indexing two parallel arrays
    fn reachability_agrees_with_dataset_bfs() {
        let ds = roads(64, 3);
        let sys = SqlGraphSystem::load(&ds).unwrap();
        let adj = Adjacency::build(&ds);
        let dist = adj.bfs_depths(0, 4);
        for t in 0..ds.vertex_count() {
            let want = dist[t] <= 4;
            let got = sys.reachable(0, t as i64, 4, None).unwrap();
            // join chains find walks; a vertex at BFS depth ≤ 4 is always
            // found, and anything found is within 4 hops.
            assert_eq!(got, want, "target {t} depth {}", dist[t]);
        }
    }

    #[test]
    fn budget_aborts_deep_chains() {
        let ds = protein(300, 4);
        let sys = SqlGraphSystem::load_with_budget(&ds, Some(2_000)).unwrap();
        // An unreachable target forces the join chains to enumerate every
        // walk at each depth — the §7.2 temp-memory blowup. Depth-4 walk
        // counts on a clustered graph exceed the 2 000-row budget.
        let err = sys.reachable(0, -1, 8, None).unwrap_err();
        assert!(
            matches!(err, grfusion_common::Error::ResourceExhausted { .. }),
            "{err}"
        );
    }

    #[test]
    fn triangles_match_brute_force() {
        let ds = protein(120, 6);
        let sys = SqlGraphSystem::load(&ds).unwrap();
        // brute-force triangle count over edges with sel < 60
        let k = 60;
        let mut adj = vec![std::collections::BTreeSet::new(); ds.vertex_count()];
        for (_, a, b, attrs) in &ds.edges {
            let sel = attrs[ds.sel_attr_index()].as_integer().unwrap();
            if sel < k && a != b {
                adj[*a as usize].insert(*b as usize);
                adj[*b as usize].insert(*a as usize);
            }
        }
        let n = ds.vertex_count();
        let mut brute = 0u64;
        for a in 0..n {
            for &b in adj[a].iter().filter(|&&b| b > a) {
                for &c in adj[b].iter().filter(|&&c| c > b) {
                    if adj[a].contains(&c) {
                        brute += 1;
                    }
                }
            }
        }
        assert_eq!(sys.count_triangles(k).unwrap(), brute);
    }
}
