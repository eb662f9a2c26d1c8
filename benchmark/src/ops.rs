//! Seeded operation streams with their expected answers, and the closed
//! loops that run them. Every operation is checked against a reference
//! computed from the generated dataset alone.

use std::sync::Arc;
use std::time::{Duration, Instant};

use grfusion::{Database, GraphCounters, PreparedQuery, QueryMetrics, Value};
use grfusion_datasets::{pairs_at_distance, random_connected_pairs, Adjacency, Dataset};

use crate::data::{inline_params, RefGraph};
use crate::rng::{Rng, Zipf};
use crate::trace::{Recorder, Span, NO_PARENT};

/// In a traced round every this-many-th operation is run a second time
/// through `execute_with_metrics` for operator spans. Operations take their
/// class in turn, so the stride is a prime: a stride of 16 over four classes
/// would instrument one class only.
pub const METERED_EVERY: u64 = 17;

/// What a correct answer looks like.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// One row; first column an integer within `min..=max` (a path length).
    IntIn { min: i64, max: i64 },
    /// One row; first column this cost, to a relative 1e-9.
    Cost(f64),
    /// One row; first column this integer.
    Int(i64),
    /// One row; first column this text.
    Text(String),
    /// This many rows.
    Rows(usize),
    /// The first column over all rows, sorted, is this list.
    IntBag(Vec<i64>),
    /// `(group, count)` in the first two columns, in any row order.
    GroupCounts(Vec<(i64, i64)>),
    /// A DML acknowledgement for this many rows.
    Affected(u64),
}

pub fn check(expect: &Expect, rows: &[Vec<Value>], rows_affected: u64) -> bool {
    let first = || match rows {
        [row] => row.first(),
        _ => None,
    };
    match expect {
        Expect::IntIn { min, max } => first()
            .and_then(|v| v.as_integer().ok())
            .is_some_and(|v| (*min..=*max).contains(&v)),
        Expect::Cost(want) => first()
            .and_then(|v| v.as_double().ok())
            .is_some_and(|got| (got - want).abs() <= 1e-9 * want.abs().max(1.0)),
        Expect::Int(want) => first().and_then(|v| v.as_integer().ok()) == Some(*want),
        Expect::Text(want) => first().and_then(|v| v.as_text().ok()) == Some(want.as_str()),
        Expect::Rows(n) => rows.len() == *n,
        Expect::IntBag(want) => {
            let mut got: Vec<i64> = rows
                .iter()
                .filter_map(|r| r.first().and_then(|v| v.as_integer().ok()))
                .collect();
            got.sort_unstable();
            got.len() == rows.len() && got == *want
        }
        Expect::GroupCounts(want) => {
            let mut got: Vec<(i64, i64)> = rows
                .iter()
                .filter_map(|r| Some((r.first()?.as_integer().ok()?, r.get(1)?.as_integer().ok()?)))
                .collect();
            got.sort_unstable();
            got.len() == rows.len() && got == *want
        }
        Expect::Affected(n) => rows_affected == *n,
    }
}

// ---------------------------------------------------------------------------
// Prepared probes
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
pub struct Probe {
    /// Index into [`ProbeSet::templates`].
    pub query: usize,
    pub params: Vec<Value>,
    pub expect: Expect,
}

/// Probe classes served in a fixed cycle: operation `i` takes class
/// `cycle[i % cycle.len()]`, and within it the probes in turn. An empty
/// cycle means every class once (equal shares).
pub struct ProbeSet {
    pub templates: Vec<String>,
    pub class_names: Vec<String>,
    pub classes: Vec<Vec<Probe>>,
    pub cycle: Vec<usize>,
}

impl ProbeSet {
    fn class_at(&self, i: u64) -> (usize, u64) {
        if self.cycle.is_empty() {
            let n = self.classes.len() as u64;
            ((i % n) as usize, i / n)
        } else {
            let n = self.cycle.len() as u64;
            (self.cycle[(i % n) as usize], i / n)
        }
    }

    pub fn get(&self, i: u64) -> (usize, &Probe) {
        let (class, turn) = self.class_at(i);
        let probes = &self.classes[class];
        (class, &probes[(turn % probes.len() as u64) as usize])
    }

    /// Every probe once, class-interleaved, literals inlined.
    pub fn statements(&self) -> Vec<String> {
        let longest = self.classes.iter().map(Vec::len).max().unwrap_or(0);
        (0..longest)
            .flat_map(|turn| {
                self.classes
                    .iter()
                    .filter_map(move |probes| probes.get(turn))
            })
            .map(|p| inline_params(&self.templates[p.query], &p.params))
            .collect()
    }
}

pub const REACH_DISTANCES: [u32; 3] = [4, 8, 12];
/// Probes per class. A class's median cost depends on which pairs were
/// drawn; with 48 pairs it moved by ±15 % between seeds.
pub const PAIRS_PER_CLASS: usize = 160;

fn reach_template(max_len: u32) -> String {
    format!(
        "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = ? \
         AND PS.EndVertex.Id = ? AND PS.Length <= {max_len} LIMIT 1"
    )
}

fn pair_params(s: i64, t: i64) -> Vec<Value> {
    vec![Value::Integer(s), Value::Integer(t)]
}

/// fig7-form reachability on pairs at exact hop distance 4 / 8 / 12. With
/// `exact` the answer must be a path of at least the BFS distance; beside a
/// writer that adds edges a shorter one may appear, so only the bound holds.
pub fn reach_probes(
    ds: &Dataset,
    adj: &Adjacency,
    seed: u64,
    exact: bool,
) -> Result<ProbeSet, String> {
    let mut set = ProbeSet {
        templates: Vec::new(),
        class_names: Vec::new(),
        classes: Vec::new(),
        cycle: Vec::new(),
    };
    for d in REACH_DISTANCES {
        let pairs = pairs_at_distance(ds, adj, d, PAIRS_PER_CLASS, seed);
        if pairs.is_empty() {
            return Err(format!("dataset has no vertex pairs at hop distance {d}"));
        }
        let query = set.templates.len();
        set.templates.push(reach_template(d));
        set.class_names.push(format!("reach{d}"));
        set.classes.push(
            pairs
                .into_iter()
                .map(|(s, t)| Probe {
                    query,
                    params: pair_params(s, t),
                    expect: Expect::IntIn {
                        min: if exact { d as i64 } else { 1 },
                        max: d as i64,
                    },
                })
                .collect(),
        );
    }
    Ok(set)
}

pub const CONSTRAINED_SEL: i64 = 50;

/// `graph_prepared`: the reach classes plus fig8-form constrained reach and
/// fig9-form shortest path.
pub fn graph_probes(ds: &Dataset, seed: u64) -> Result<ProbeSet, String> {
    let adj = Adjacency::build(ds);
    let mut set = reach_probes(ds, &adj, seed, true)?;

    // fig8: pairs connected at distance 4 inside the `sel < 50` sub-graph.
    let sub = ds.filter_edges_sel_lt(CONSTRAINED_SEL);
    let sub_adj = Adjacency::build(&sub);
    let pairs = pairs_at_distance(&sub, &sub_adj, 4, PAIRS_PER_CLASS, seed);
    if pairs.is_empty() {
        return Err("sub-graph sel < 50 has no pairs at hop distance 4".to_string());
    }
    let query = set.templates.len();
    set.templates.push(
        "SELECT PS.Length FROM g.Paths PS WHERE PS.StartVertex.Id = ? \
         AND PS.EndVertex.Id = ? AND PS.Length <= 4 AND PS.Edges[0..*].sel < ? LIMIT 1"
            .to_string(),
    );
    set.class_names.push("constrained4".to_string());
    set.classes.push(
        pairs
            .into_iter()
            .map(|(s, t)| {
                let mut params = pair_params(s, t);
                params.push(Value::Integer(CONSTRAINED_SEL));
                Probe {
                    query,
                    params,
                    expect: Expect::IntIn { min: 4, max: 4 },
                }
            })
            .collect(),
    );

    set.push_shortest_paths(ds, &adj, seed)?;
    Ok(set)
}

pub const SP_TEMPLATE: &str = "SELECT PS.Cost FROM g.Paths PS HINT(SHORTESTPATH(weight)) \
     WHERE PS.StartVertex.Id = ? AND PS.EndVertex.Id = ? LIMIT 1";

impl ProbeSet {
    /// fig9: connected pairs, expected cost from the reference Dijkstra.
    fn push_shortest_paths(
        &mut self,
        ds: &Dataset,
        adj: &Adjacency,
        seed: u64,
    ) -> Result<(), String> {
        let reference = RefGraph::build(ds);
        let pairs = random_connected_pairs(ds, adj, 6, PAIRS_PER_CLASS, seed);
        if pairs.is_empty() {
            return Err("dataset has no connected pairs".to_string());
        }
        let query = self.templates.len();
        self.templates.push(SP_TEMPLATE.to_string());
        self.class_names.push("shortest_path".to_string());
        let probes = pairs
            .into_iter()
            .map(|(s, t)| {
                let cost = reference
                    .shortest_cost(s as usize, t as usize)
                    .ok_or_else(|| format!("reference finds no path {s} -> {t}"))?;
                Ok(Probe {
                    query,
                    params: pair_params(s, t),
                    expect: Expect::Cost(cost),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        self.classes.push(probes);
        Ok(())
    }
}

/// What an instrumented (`execute_with_metrics`) query reported, summed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metered {
    pub queries: u64,
    pub rows: u64,
    pub next_calls: u64,
    pub path_rows: u64,
    pub graph: GraphCounters,
}

impl Metered {
    pub fn add(&mut self, m: &QueryMetrics) {
        self.queries += 1;
        for n in &m.nodes {
            self.rows += n.rows;
            self.next_calls += n.next_calls;
            if let Some(g) = &n.graph {
                self.path_rows += n.rows;
                self.graph.merge(g);
            }
        }
    }
}

/// Run `sql` instrumented and record its operator spans.
pub fn metered_query(
    db: &Database,
    sql: &str,
    rec: &mut Recorder,
    request: u64,
    totals: &mut Metered,
) {
    let start = rec.now();
    let rs = db.execute_with_metrics(sql);
    let id = rec.push(
        "core.execute_with_metrics",
        start,
        rec.now(),
        NO_PARENT,
        request,
    );
    if let Ok(Some(m)) = rs.map(|rs| rs.metrics) {
        rec.push_operators(&m, id, request);
        totals.add(&m);
    }
}

/// Latencies and verdicts of one closed loop.
#[derive(Default)]
pub struct LoopOut {
    pub lat_ns: Vec<u64>,
    /// Probe class of each latency (index into `class_names`).
    pub class: Vec<u8>,
    pub attempted: u64,
    pub failed: u64,
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub metered: Metered,
}

/// One thread, prepared statements, closed loop.
pub struct PreparedLoop {
    pub db: Arc<Database>,
    pub prepared: Vec<PreparedQuery>,
    pub probes: ProbeSet,
    /// Position in the probe stream; rounds continue where the last stopped.
    pub cursor: u64,
}

impl PreparedLoop {
    pub fn new(db: Arc<Database>, probes: ProbeSet) -> Result<PreparedLoop, String> {
        let prepared = probes
            .templates
            .iter()
            .map(|t| db.prepare(t).map_err(|e| format!("prepare `{t}`: {e}")))
            .collect::<Result<_, _>>()?;
        Ok(PreparedLoop {
            db,
            prepared,
            probes,
            cursor: 0,
        })
    }

    /// Closed loop for `secs` seconds, sleeping `think` after each operation.
    pub fn run(
        &mut self,
        secs: f64,
        origin: Instant,
        traced: bool,
        think: Option<Duration>,
    ) -> LoopOut {
        let mut out = LoopOut::default();
        let mut rec = Recorder::new(origin);
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(secs);
        loop {
            let i = self.cursor;
            let (class, probe) = self.probes.get(i);
            let t0 = Instant::now();
            if t0 >= deadline {
                break;
            }
            let result = self
                .db
                .execute_prepared(&self.prepared[probe.query], &probe.params);
            let t1 = Instant::now();
            self.cursor += 1;
            out.lat_ns.push((t1 - t0).as_nanos() as u64);
            out.class.push(class as u8);
            out.attempted += 1;
            if !result.is_ok_and(|rs| check(&probe.expect, &rs.rows, rs.rows_affected)) {
                out.failed += 1;
            }
            if traced {
                rec.push(
                    "core.execute_prepared",
                    rec.at(t0),
                    rec.at(t1),
                    NO_PARENT,
                    i,
                );
                if i.is_multiple_of(METERED_EVERY) {
                    let sql = inline_params(&self.probes.templates[probe.query], &probe.params);
                    metered_query(&self.db, &sql, &mut rec, i, &mut out.metered);
                }
            }
            if let Some(think) = think {
                std::thread::sleep(think);
            }
        }
        out.wall_s = start.elapsed().as_secs_f64();
        out.spans = rec.spans;
        out
    }
}

// ---------------------------------------------------------------------------
// Ad-hoc text statements
// ---------------------------------------------------------------------------

pub const ADHOC_KINDS: [&str; 3] = ["pk_lookup", "neighbours", "path_count"];

#[derive(Debug, Clone, PartialEq)]
pub struct AdhocOp {
    /// Index into [`ADHOC_KINDS`].
    pub kind: u8,
    pub vertex: i64,
    pub sql: String,
}

/// SQL text with literals inlined, the vertex drawn Zipf(1): hot statements
/// repeat verbatim and the tail is unique.
pub struct AdhocStream {
    rng: Rng,
    zipf: Zipf,
    n: u64,
    stride: u64,
    offset: u64,
    seen: Vec<bool>,
    pub issued: u64,
    pub repeats: u64,
}

impl AdhocStream {
    pub fn new(n_vertices: usize, seed: u64) -> AdhocStream {
        let n = n_vertices as u64;
        // Rank r maps to vertex (r * stride + offset) % n: a bijection, since
        // the stride is a prime that does not divide n. It decouples "hot"
        // from "low id" (the generators' hubs).
        let stride = [7919u64, 104_729, 1_299_709]
            .into_iter()
            .find(|p| !n.is_multiple_of(*p))
            .unwrap_or(1);
        let mut rng = Rng::new(seed ^ 0xAD0C);
        let offset = rng.below(n);
        AdhocStream {
            rng,
            zipf: Zipf::new(n_vertices),
            n,
            stride,
            offset,
            seen: vec![false; 3 * n_vertices],
            issued: 0,
            repeats: 0,
        }
    }

    pub fn next_op(&mut self) -> AdhocOp {
        let rank = self.zipf.sample(&mut self.rng) as u64;
        let vertex = (rank * self.stride + self.offset) % self.n;
        let kind = self.rng.below(3) as u8;
        let slot = &mut self.seen[(vertex * 3 + kind as u64) as usize];
        self.issued += 1;
        if std::mem::replace(slot, true) {
            self.repeats += 1;
        }
        AdhocOp {
            kind,
            vertex: vertex as i64,
            sql: adhoc_sql(kind, vertex as i64),
        }
    }

    /// Share of issued statements whose exact text had been issued before.
    pub fn repeat_frac(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.repeats as f64 / self.issued as f64
        }
    }
}

pub fn adhoc_sql(kind: u8, v: i64) -> String {
    match kind {
        0 => format!("SELECT name FROM v_src WHERE id = {v}"),
        1 => format!(
            "SELECT PS.EndVertex.Id FROM g.Paths PS WHERE PS.StartVertex.Id = {v} AND PS.Length = 1"
        ),
        _ => format!(
            "SELECT COUNT(P) FROM g.Paths P WHERE P.StartVertex.Id = {v} \
             AND P.Length >= 1 AND P.Length <= 2"
        ),
    }
}

/// Expected answers of the ad-hoc statements.
pub struct AdhocRef {
    names: Vec<String>,
    graph: RefGraph,
    undirected: bool,
}

impl AdhocRef {
    pub fn build(ds: &Dataset) -> AdhocRef {
        AdhocRef {
            names: ds
                .vertices
                .iter()
                .map(|(_, attrs)| attrs.first().map(|v| v.to_string()).unwrap_or_default())
                .collect(),
            graph: RefGraph::build(ds),
            undirected: !ds.directed,
        }
    }

    pub fn expect(&self, op: &AdhocOp) -> Expect {
        let v = op.vertex as usize;
        match op.kind {
            0 => Expect::Text(self.names[v].clone()),
            1 => {
                let mut out: Vec<i64> = self.graph.out[v]
                    .iter()
                    .map(|&(t, _, _)| t as i64)
                    .collect();
                out.sort_unstable();
                Expect::IntBag(out)
            }
            _ => Expect::Int(self.graph.paths_up_to_2(v, self.undirected) as i64),
        }
    }
}

/// The first `n` statements of the stream a seed produces.
pub fn adhoc_statements(n_vertices: usize, seed: u64, n: usize) -> Vec<String> {
    let mut stream = AdhocStream::new(n_vertices, seed);
    (0..n).map(|_| stream.next_op().sql).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use grfusion_datasets::follower;

    #[test]
    fn same_seed_gives_a_byte_identical_statement_stream() {
        let a = adhoc_statements(500, 42, 400).join("\n");
        assert_eq!(a, adhoc_statements(500, 42, 400).join("\n"));
        assert_ne!(a, adhoc_statements(500, 43, 400).join("\n"));

        let ds = follower(600, 9);
        let probes = |seed| graph_probes(&ds, seed).map(|p| p.statements().join("\n"));
        let p = probes(5);
        // The follower graph this small may lack distance-12 pairs; then the
        // error, too, must repeat.
        assert_eq!(p, probes(5));
        if let Ok(text) = p {
            assert_ne!(Ok(text), probes(6));
        }
    }

    #[test]
    fn zipf_stream_repeats_hot_statements_and_reaches_the_tail() {
        let mut s = AdhocStream::new(2000, 1);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..5000 {
            distinct.insert(s.next_op().sql);
        }
        assert_eq!(s.issued, 5000);
        assert_eq!(s.repeats as usize, 5000 - distinct.len());
        assert!(
            s.repeat_frac() > 0.3 && s.repeat_frac() < 0.9,
            "{}",
            s.repeat_frac()
        );
    }

    #[test]
    fn checks_accept_right_answers_and_reject_wrong_ones() {
        let int = |v| vec![Value::Integer(v)];
        assert!(check(&Expect::IntIn { min: 2, max: 4 }, &[int(3)], 0));
        assert!(!check(&Expect::IntIn { min: 2, max: 4 }, &[int(5)], 0));
        assert!(!check(&Expect::IntIn { min: 2, max: 4 }, &[], 0));
        assert!(check(
            &Expect::Cost(10.0),
            &[vec![Value::Double(10.0 + 1e-12)]],
            0
        ));
        assert!(!check(&Expect::Cost(10.0), &[vec![Value::Double(10.1)]], 0));
        assert!(check(
            &Expect::IntBag(vec![1, 2, 2]),
            &[int(2), int(1), int(2)],
            0
        ));
        assert!(!check(
            &Expect::IntBag(vec![1, 2]),
            &[int(1), int(2), int(2)],
            0
        ));
        assert!(check(
            &Expect::Text("user7".into()),
            &[vec![Value::text("user7")]],
            0
        ));
        assert!(check(&Expect::Rows(2), &[int(1), int(1)], 0));
        assert!(check(&Expect::Affected(1), &[], 1));
        assert!(!check(&Expect::Affected(1), &[], 0));
        let groups = [
            vec![Value::Integer(1), Value::Integer(5)],
            vec![Value::Integer(0), Value::Integer(4)],
        ];
        assert!(check(
            &Expect::GroupCounts(vec![(0, 4), (1, 5)]),
            &groups,
            0
        ));
        assert!(!check(
            &Expect::GroupCounts(vec![(0, 4), (1, 6)]),
            &groups,
            0
        ));
    }
}
