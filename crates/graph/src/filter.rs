//! Traversal-time filtering hooks.
//!
//! GRFusion's optimizer pushes relational predicates *ahead of* the
//! `PathScan` operator (EDBT 2018 §6.2): edge/vertex predicates and running
//! path aggregates are checked while the graph is being traversed so that
//! doomed paths are pruned before they ever reach the pipeline. The engine
//! crate implements this trait with closures that dereference tuple
//! pointers into the relational sources; the traversal iterators here call
//! it at every expansion step.

use crate::topology::{EdgeSlot, GraphTopology, VertexSlot};

/// Pruning decisions consulted during traversal.
///
/// All methods default to "allowed" so implementations override only what
/// the query constrains. `hop` / `position` are 0-based indexes into the
/// path's edge / vertex lists, enabling indexed predicates like
/// `PS.Edges[0..2].Type = 'covalent'`.
pub trait TraversalFilter {
    /// May edge `edge` be used as hop number `hop`?
    fn edge_allowed(&self, graph: &GraphTopology, edge: EdgeSlot, hop: usize) -> bool {
        let _ = (graph, edge, hop);
        true
    }

    /// May vertex `vertex` appear at `position` on the path? (Position 0 is
    /// the start vertex.)
    fn vertex_allowed(&self, graph: &GraphTopology, vertex: VertexSlot, position: usize) -> bool {
        let _ = (graph, vertex, position);
        true
    }

    /// How many running sums the filter bounds — running aggregates such
    /// as `SUM(PS.Edges.Cost) < 10`, which prune a prefix as soon as its
    /// total leaves the bound (§6.2). The DFS and BFS enumerators keep that
    /// many sums per prefix, and none (nor any call to
    /// [`TraversalFilter::step_sums`]) when it is 0.
    fn running_sums(&self) -> usize {
        0
    }

    /// Add hop number `hop` — `edge` from `from` to `to` — to `sums`, a
    /// copy of the running sums of the prefix it extends, and say whether
    /// the extended prefix may still lead to results. A prefix's sums start
    /// at 0; hop 0 also adds the start vertex `from`, which is never tested
    /// on its own.
    fn step_sums(
        &self,
        graph: &GraphTopology,
        sums: &mut [f64],
        hop: usize,
        from: VertexSlot,
        edge: EdgeSlot,
        to: VertexSlot,
    ) -> bool {
        let _ = (graph, sums, hop, from, edge, to);
        true
    }
}

/// The no-op filter (unconstrained traversal).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFilter;

impl TraversalFilter for NoFilter {}

/// Filter defined by closures — convenient for tests and ad-hoc traversals.
pub struct FnFilter<E, V>
where
    E: Fn(&GraphTopology, EdgeSlot, usize) -> bool,
    V: Fn(&GraphTopology, VertexSlot, usize) -> bool,
{
    pub edge: E,
    pub vertex: V,
}

impl<E, V> TraversalFilter for FnFilter<E, V>
where
    E: Fn(&GraphTopology, EdgeSlot, usize) -> bool,
    V: Fn(&GraphTopology, VertexSlot, usize) -> bool,
{
    fn edge_allowed(&self, graph: &GraphTopology, edge: EdgeSlot, hop: usize) -> bool {
        (self.edge)(graph, edge, hop)
    }
    fn vertex_allowed(&self, graph: &GraphTopology, vertex: VertexSlot, position: usize) -> bool {
        (self.vertex)(graph, vertex, position)
    }
}

/// An edge-only closure filter (the common pushdown case).
pub fn edge_filter<F>(f: F) -> impl TraversalFilter
where
    F: Fn(&GraphTopology, EdgeSlot, usize) -> bool,
{
    FnFilter {
        edge: f,
        vertex: |_: &GraphTopology, _: VertexSlot, _: usize| true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grfusion_common::RowId;

    #[test]
    fn no_filter_allows_everything() {
        let g = GraphTopology::new("g", true);
        let f = NoFilter;
        assert!(f.edge_allowed(&g, 0, 0));
        assert!(f.vertex_allowed(&g, 0, 0));
        assert_eq!(f.running_sums(), 0);
        assert!(f.step_sums(&g, &mut [], 0, 0, 0, 0));
    }

    #[test]
    fn edge_filter_dispatches() {
        let mut g = GraphTopology::new("g", true);
        g.add_vertex(1, RowId(0)).unwrap();
        g.add_vertex(2, RowId(1)).unwrap();
        let e = g.add_edge(10, 1, 2, RowId(2)).unwrap();
        let f = edge_filter(|g: &GraphTopology, edge, _| g.edge_id(edge) != 10);
        assert!(!f.edge_allowed(&g, e, 0));
        assert!(f.vertex_allowed(&g, 0, 0));
    }
}
