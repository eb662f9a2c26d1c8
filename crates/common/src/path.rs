//! The path payload attached to rows produced by `PathScan`.

use std::fmt;
use std::sync::Arc;

use crate::ids::{EdgeId, VertexId};

/// A simple path through a graph view.
///
/// `PathData` is the engine-internal form of the paper's `Path` data type
/// (EDBT 2018 §5.2): an ordered list of edges plus the vertex sequence they
/// visit. It deliberately stores only *identifiers* — attribute access
/// (`PS.Edges[0..*].StartDate`, path aggregates, ...) dereferences the graph
/// view's tuple pointers at evaluation time, so a path costs
/// `O(length)` ids no matter how wide the vertex/edge tuples are.
#[derive(Debug, Clone, PartialEq)]
pub struct PathData {
    /// Name of the graph view the path was traversed from, shared with the
    /// topology that owns it (a refcount per path, not a copy).
    pub graph_view: Arc<str>,
    /// The `length + 1` vertex ids in visit order, then the `length` edge
    /// ids in traversal order: one buffer, so one allocation per path.
    ids: Vec<i64>,
    /// Accumulated cost when produced by `SPScan` (sum of the hinted cost
    /// attribute); `0.0` for DFS/BFS paths.
    pub cost: f64,
}

impl PathData {
    /// A path over `ids`: its vertex ids in visit order followed by its
    /// edge ids in traversal order, so `ids.len()` is odd.
    pub fn from_ids(graph_view: Arc<str>, ids: Vec<i64>, cost: f64) -> Self {
        assert!(ids.len() % 2 == 1, "a path has one more vertex than edges");
        PathData {
            graph_view,
            ids,
            cost,
        }
    }

    /// A path from its vertex and edge id sequences
    /// (`vertexes.len() == edges.len() + 1`).
    pub fn new(
        graph_view: Arc<str>,
        vertexes: impl ExactSizeIterator<Item = VertexId>,
        edges: impl Iterator<Item = EdgeId>,
        cost: f64,
    ) -> Self {
        let mut ids = Vec::with_capacity((2 * vertexes.len()).saturating_sub(1));
        ids.extend(vertexes);
        ids.extend(edges);
        PathData::from_ids(graph_view, ids, cost)
    }

    /// A zero-length path anchored at `start` (used as traversal seed).
    pub fn seed(graph_view: impl Into<Arc<str>>, start: VertexId) -> Self {
        PathData::from_ids(graph_view.into(), vec![start], 0.0)
    }

    /// Number of edges in the path (`PS.Length`).
    #[inline]
    pub fn length(&self) -> usize {
        self.ids.len() / 2
    }

    /// Vertex ids in visit order; one more than [`PathData::edges`].
    #[inline]
    pub fn vertexes(&self) -> &[VertexId] {
        &self.ids[..=self.length()]
    }

    /// Edge ids in traversal order.
    #[inline]
    pub fn edges(&self) -> &[EdgeId] {
        &self.ids[self.length() + 1..]
    }

    /// `PS.StartVertex` id.
    #[inline]
    pub fn start_vertex(&self) -> VertexId {
        self.ids[0]
    }

    /// `PS.EndVertex` id.
    #[inline]
    pub fn end_vertex(&self) -> VertexId {
        self.ids[self.length()]
    }

    /// `PS.PathString`: human-readable vertex chain, e.g. `1->5->9`.
    pub fn path_string(&self) -> String {
        let mut s = String::new();
        for (i, v) in self.vertexes().iter().enumerate() {
            if i > 0 {
                s.push_str("->");
            }
            s.push_str(&v.to_string());
        }
        s
    }
}

impl fmt::Display for PathData {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.path_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_has_length_zero() {
        let p = PathData::seed("g", 7);
        assert_eq!(p.length(), 0);
        assert_eq!(p.start_vertex(), 7);
        assert_eq!(p.end_vertex(), 7);
        assert!(p.edges().is_empty());
        assert_eq!(p.path_string(), "7");
    }

    #[test]
    fn vertex_and_edge_ids_share_one_buffer() {
        let p = PathData::new(
            "g".into(),
            [1, 2, 3].into_iter(),
            [100, 101].into_iter(),
            4.0,
        );
        assert_eq!(p.length(), 2);
        assert_eq!(p.start_vertex(), 1);
        assert_eq!(p.end_vertex(), 3);
        assert_eq!(p.vertexes(), [1, 2, 3]);
        assert_eq!(p.edges(), [100, 101]);
        assert_eq!(p.path_string(), "1->2->3");
        assert_eq!(
            p,
            PathData::from_ids("g".into(), vec![1, 2, 3, 100, 101], 4.0)
        );
    }
}
