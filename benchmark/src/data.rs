//! Loading generated datasets into the default engine, and the benchmark's
//! own reference answers (BFS, Dijkstra, path and triangle counters). The
//! references read only the generated `Dataset`, never the engine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

use grfusion::{Database, Value};
use grfusion_common::DataType;
use grfusion_datasets::Dataset;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A dataset loaded as `v_src` / `e_src` plus the graph view `g`.
pub struct GraphDb {
    pub ds: Dataset,
    pub db: Arc<Database>,
    pub bulk_load_ms: f64,
    pub create_view_ms: f64,
}

fn sql_type(t: DataType) -> &'static str {
    match t {
        DataType::Integer => "INTEGER",
        DataType::Double => "DOUBLE",
        DataType::Boolean => "BOOLEAN",
        DataType::Varchar | DataType::Path => "VARCHAR",
    }
}

/// `Database::new()` + two tables + `CREATE GRAPH VIEW g` (paper §3).
pub fn load_graph(ds: Dataset) -> Result<GraphDb, String> {
    let db = Database::new();
    let run = |sql: &str| db.execute(sql).map_err(|e| format!("`{sql}`: {e}"));
    let cols = |schema: &[(String, DataType)]| -> String {
        schema
            .iter()
            .map(|(n, t)| format!(", {n} {}", sql_type(*t)))
            .collect()
    };
    run(&format!(
        "CREATE TABLE v_src (id INTEGER PRIMARY KEY{})",
        cols(&ds.vertex_schema)
    ))?;
    run(&format!(
        "CREATE TABLE e_src (id INTEGER PRIMARY KEY, src INTEGER, dst INTEGER{})",
        cols(&ds.edge_schema)
    ))?;
    let vrows: Vec<Vec<Value>> = ds
        .vertices
        .iter()
        .map(|(id, attrs)| {
            let mut r = vec![Value::Integer(*id)];
            r.extend(attrs.iter().cloned());
            r
        })
        .collect();
    let erows: Vec<Vec<Value>> = ds
        .edges
        .iter()
        .map(|(id, from, to, attrs)| {
            let mut r = vec![
                Value::Integer(*id),
                Value::Integer(*from),
                Value::Integer(*to),
            ];
            r.extend(attrs.iter().cloned());
            r
        })
        .collect();
    let t = Instant::now();
    db.bulk_insert("v_src", vrows).map_err(|e| e.to_string())?;
    db.bulk_insert("e_src", erows).map_err(|e| e.to_string())?;
    let bulk_load_ms = ms_since(t);

    let attrs = |schema: &[(String, DataType)]| -> String {
        schema.iter().map(|(n, _)| format!(", {n} = {n}")).collect()
    };
    let ddl = format!(
        "CREATE {} GRAPH VIEW g VERTEXES(ID = id{}) FROM v_src \
         EDGES(ID = id, FROM = src, TO = dst{}) FROM e_src",
        if ds.directed {
            "DIRECTED"
        } else {
            "UNDIRECTED"
        },
        attrs(&ds.vertex_schema),
        attrs(&ds.edge_schema),
    );
    let t = Instant::now();
    run(&ddl)?;
    let create_view_ms = ms_since(t);
    Ok(GraphDb {
        ds,
        db: Arc::new(db),
        bulk_load_ms,
        create_view_ms,
    })
}

/// Weighted out-adjacency of a dataset: `(neighbour, weight, sel)` per hop,
/// undirected edges in both directions.
pub struct RefGraph {
    pub out: Vec<Vec<(u32, f64, i64)>>,
}

impl RefGraph {
    pub fn build(ds: &Dataset) -> RefGraph {
        let (w, s) = (ds.weight_attr_index(), ds.sel_attr_index());
        let mut out = vec![Vec::new(); ds.vertex_count()];
        for (_, from, to, attrs) in &ds.edges {
            let weight = attrs[w].as_double().unwrap_or(f64::INFINITY);
            let sel = attrs[s].as_integer().unwrap_or(i64::MAX);
            out[*from as usize].push((*to as u32, weight, sel));
            if !ds.directed && from != to {
                out[*to as usize].push((*from as u32, weight, sel));
            }
        }
        RefGraph { out }
    }

    /// Reference Dijkstra: cheapest cost from `src` to `dst`, if reachable.
    pub fn shortest_cost(&self, src: usize, dst: usize) -> Option<f64> {
        #[derive(PartialEq)]
        struct Entry(f64, usize);
        impl Eq for Entry {}
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> Ordering {
                other.0.total_cmp(&self.0) // min-heap on cost
            }
        }
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        let mut dist = vec![f64::INFINITY; self.out.len()];
        let mut heap = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(Entry(0.0, src));
        while let Some(Entry(d, v)) = heap.pop() {
            if v == dst {
                return Some(d);
            }
            if d > dist[v] {
                continue;
            }
            for &(t, w, _) in &self.out[v] {
                let nd = d + w;
                if nd < dist[t as usize] {
                    dist[t as usize] = nd;
                    heap.push(Entry(nd, t as usize));
                }
            }
        }
        None
    }

    /// Simple paths of length 1 or 2 from `v`, by the engine's rules: no
    /// intermediate vertex revisited, no edge reused, and a path may close
    /// back on its start. The generators emit no self-loops and no parallel
    /// edges, so "edge reused" only bites on undirected graphs, where the
    /// second hop may not walk the first edge back.
    pub fn paths_up_to_2(&self, v: usize, undirected: bool) -> u64 {
        let mut n = 0u64;
        for &(u, _, _) in &self.out[v] {
            n += 1;
            for &(w, _, _) in &self.out[u as usize] {
                let back = w as usize == v;
                if w == u || (back && undirected) {
                    continue;
                }
                n += 1;
            }
        }
        n
    }

    /// Naive triangle count over edges with `sel < k` (undirected graphs).
    pub fn triangles_sel_lt(&self, k: i64) -> u64 {
        let n = self.out.len();
        let adj: Vec<Vec<u32>> = (0..n)
            .map(|v| {
                let mut a: Vec<u32> = self.out[v]
                    .iter()
                    .filter(|&&(t, _, sel)| sel < k && t as usize > v)
                    .map(|&(t, _, _)| t)
                    .collect();
                a.sort_unstable();
                a
            })
            .collect();
        let mut count = 0u64;
        for a in 0..n {
            for (i, &b) in adj[a].iter().enumerate() {
                for &c in &adj[a][i + 1..] {
                    if adj[b as usize].binary_search(&c).is_ok() {
                        count += 1;
                    }
                }
            }
        }
        count
    }
}

/// Render a parameter as the SQL literal the engine parses back to it.
pub fn literal(v: &Value) -> String {
    match v {
        Value::Integer(i) => i.to_string(),
        Value::Double(d) => format!("{d:?}"),
        other => match other.as_text() {
            Ok(s) => format!("'{}'", s.replace('\'', "''")),
            Err(_) => other.to_string(),
        },
    }
}

/// Substitute `?` placeholders, in order, with literals.
pub fn inline_params(template: &str, params: &[Value]) -> String {
    let mut out = String::with_capacity(template.len() + 8 * params.len());
    let mut next = params.iter();
    for c in template.chars() {
        match (c, next.as_slice().first()) {
            ('?', Some(p)) => {
                out.push_str(&literal(p));
                next.next();
            }
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use grfusion_datasets::{follower, protein, Adjacency};

    #[test]
    fn reference_dijkstra_agrees_with_bfs_on_unit_weights() {
        let mut ds = follower(300, 3);
        let w = ds.weight_attr_index();
        for e in &mut ds.edges {
            e.3[w] = Value::Double(1.0);
        }
        let (g, adj) = (RefGraph::build(&ds), Adjacency::build(&ds));
        let depth = adj.bfs_depths(250, 64);
        for (t, &d) in depth.iter().enumerate() {
            let want = (d != u32::MAX).then_some(d as f64);
            assert_eq!(g.shortest_cost(250, t), want, "target {t}");
        }
    }

    #[test]
    fn reference_counters_match_the_engine_on_a_small_graph() {
        let ds = protein(150, 5);
        let g = RefGraph::build(&ds);
        let loaded = load_graph(ds).unwrap();
        let closed = loaded
            .db
            .execute(
                "SELECT COUNT(P) FROM g.Paths P WHERE P.Length = 3 AND P.Edges[0..*].sel < 60 \
                 AND P.Edges[2].EndVertex = P.Edges[0].StartVertex",
            )
            .unwrap();
        let closed = closed.scalar().unwrap().as_integer().unwrap() as u64;
        assert!(closed > 0);
        assert_eq!(closed, 6 * g.triangles_sel_lt(60));
        for v in [0usize, 7, 149] {
            let rs = loaded
                .db
                .execute(&format!(
                    "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = {v} \
                     AND P.Length >= 1 AND P.Length <= 2"
                ))
                .unwrap();
            let got = rs.scalar().unwrap().as_integer().unwrap() as u64;
            assert_eq!(got, g.paths_up_to_2(v, true), "vertex {v}");
        }
    }

    #[test]
    fn params_inline_in_order() {
        let sql = inline_params(
            "a = ? AND b < ? AND c = ?",
            &[Value::Integer(3), Value::Double(2.0), Value::text("x")],
        );
        assert_eq!(sql, "a = 3 AND b < 2.0 AND c = 'x'");
    }
}
