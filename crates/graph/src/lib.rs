//! Native graph topology and traversal primitives.
//!
//! This crate implements the materialized graph-view *topology* of GRFusion
//! (EDBT 2018 §3.2): an adjacency-list structure whose vertexes and edges
//! carry main-memory tuple pointers ([`RowId`](grfusion_common::RowId)s)
//! into the relational sources that store their attributes. The topology is
//! a "traversal index" — it answers neighbourhood questions in O(degree)
//! without relational joins, while attribute predicates dereference tuple
//! pointers in O(1).
//!
//! Three lazy traversal engines back the paper's physical path operators
//! (§5.1.2, §6.3):
//!
//! * [`DfsPaths`] — depth-first simple-path enumeration (`DFScan`),
//! * [`BfsPaths`] — breadth-first simple-path enumeration (`BFScan`),
//! * [`KShortestPaths`] — pull-based shortest-path enumeration in
//!   non-decreasing cost order (`SPScan`, Dijkstra-based).
//!
//! All three are pull-based iterators: paths are produced only when the
//! parent operator asks (the paper's lazy `PathScan`), so `LIMIT 1`
//! reachability stops traversing on the first hit.
//!
//! Queries that need one path between two pinned vertexes skip enumeration
//! altogether: [`hop_minimal_path`] (forward BFS) and [`shortest_path`]
//! (Dijkstra) search with per-thread dense scratch state (`search`).

pub mod dijkstra;
pub mod filter;
pub mod p2p;
mod search;
pub mod topology;
pub mod traverse;

pub use dijkstra::{shortest_path, shortest_path_with_stats, KShortestPaths};
pub use filter::{NoFilter, TraversalFilter};
pub use p2p::hop_minimal_path;
pub use search::SearchStats;
pub use topology::{EdgeSlot, GraphStats, GraphTopology, Hop, TopologyLayout, VertexSlot};
pub use traverse::{BfsPaths, DfsPaths, TraversalSpec};

// Thread-safety contract: the core crate's `Database` is shared across
// threads with every topology inside its writer mutex, and a read-only
// `GraphTopology` may be traversed from several threads at once, each
// running its own traversal. These bounds are load-bearing — adding
// interior mutability (Cell/RefCell/Rc) to the topology would break
// compilation here rather than at a distant call site.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<GraphTopology>();
    assert_sync_send::<NoFilter>();
};

#[cfg(test)]
mod thread_safety_tests {
    use super::*;
    use grfusion_common::RowId;

    /// Many reader threads traversing one shared topology concurrently
    /// must agree with a single-threaded traversal (smoke test for the
    /// shared-read-only-topology contract above).
    #[test]
    fn concurrent_readers_match_serial_traversal() {
        let mut g = GraphTopology::new("g", true);
        for v in 0..64 {
            g.add_vertex(v, RowId(v as u64)).unwrap();
        }
        let mut eid = 0;
        for v in 0..64i64 {
            for d in [1i64, 3, 7] {
                let t = (v + d) % 64;
                g.add_edge(eid, v, t, RowId(0)).unwrap();
                eid += 1;
            }
        }
        let serial: Vec<String> = DfsPaths::new(
            &g,
            g.vertex_slots().collect(),
            TraversalSpec::new(1, 3),
            NoFilter,
        )
        .map(|p| p.path_string())
        .collect();
        assert!(!serial.is_empty());

        // Sealing must not change traversal output, and the sealed CSR is
        // read concurrently below (the executor's common case).
        g.seal();
        let sealed: Vec<String> = DfsPaths::new(
            &g,
            g.vertex_slots().collect(),
            TraversalSpec::new(1, 3),
            NoFilter,
        )
        .map(|p| p.path_string())
        .collect();
        assert_eq!(sealed, serial);

        let results: Vec<Vec<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        DfsPaths::new(
                            &g,
                            g.vertex_slots().collect(),
                            TraversalSpec::new(1, 3),
                            NoFilter,
                        )
                        .map(|p| p.path_string())
                        .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in results {
            assert_eq!(r, serial);
        }
    }
}
