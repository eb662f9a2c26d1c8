//! The materialized graph-view topology.
//!
//! One hop slice, every layout: a vertex's outgoing adjacency is a slice
//! of [`Hop`]s — the edge and the vertex on its other side — whether it
//! lives in the never-sealed per-vertex `Vec`s, the sealed CSR, or the
//! delta overlay. [`GraphTopology::add_edge`] computes the far endpoint
//! once, when it links the edge, and [`GraphTopology::out_hops`] is the
//! one outgoing read every traversal kernel expands through.

use std::collections::HashMap;

use grfusion_common::{EdgeId, Error, FoldState, Result, RowId, VertexId};

/// Slot index of a vertex inside the topology's vertex arena.
pub type VertexSlot = u32;
/// Slot index of an edge inside the topology's edge arena.
pub type EdgeSlot = u32;
/// One outgoing adjacency entry: the edge, then the vertex on its other
/// side. Every layout stores hops in this form, so a traversal step reads
/// its next vertex without dereferencing the edge.
pub type Hop = (EdgeSlot, VertexSlot);

/// Widen a 32-bit slot (or CSR offset) to an array index. The single
/// audited widening site for the crate's slot-indexed arrays.
#[inline(always)]
pub(crate) fn ix(v: u32) -> usize {
    v as usize // cast-ok: u32 -> usize is lossless on every supported target
}

#[derive(Debug, Clone)]
struct VertexNode {
    id: VertexId,
    tuple: RowId,
    /// Outgoing hops. For undirected graphs every incident edge appears
    /// here (and `inc` stays empty).
    out: Vec<Hop>,
    /// Incoming edge slots (directed graphs only).
    inc: Vec<EdgeSlot>,
    alive: bool,
    /// Sealed topologies only: this vertex's adjacency lives in the
    /// per-vertex `out`/`inc` Vecs (the delta overlay) rather than in the
    /// sealed CSR arrays. Always false while the topology is unsealed.
    overlaid: bool,
}

#[derive(Debug, Clone)]
struct EdgeNode {
    id: EdgeId,
    from: VertexSlot,
    to: VertexSlot,
    tuple: RowId,
    alive: bool,
}

/// Sealed CSR (compressed sparse row) snapshot of the adjacency.
///
/// Built by [`GraphTopology::seal`] from the per-vertex hop lists:
/// `out_offsets[v]..out_offsets[v + 1]` indexes the contiguous `out_hops`
/// run holding vertex `v`'s [`Hop`]s in exactly the order the per-vertex
/// `Vec` held them — so a frontier expansion reads one cache-linear array
/// instead of chasing one heap-allocated `Vec` per vertex. Incoming edges
/// get the same offsets/targets treatment as bare edge slots (`FanIn` only
/// needs counts and slots).
///
/// The arrays cover the vertex arena as it existed at seal time
/// (`out_offsets.len() - 1` slots). Vertexes added later, and vertexes
/// whose adjacency changed after sealing, are diverted to the delta
/// overlay (their `VertexNode::overlaid` flag) and never read the CSR.
#[derive(Debug, Clone)]
struct CsrLayout {
    /// `len == sealed vertex arena size + 1`; prefix sums into `out_hops`.
    out_offsets: Vec<u32>,
    /// Outgoing hops, vertex-major, per-vertex traversal order.
    out_hops: Vec<Hop>,
    in_offsets: Vec<u32>,
    in_targets: Vec<EdgeSlot>,
}

impl CsrLayout {
    /// Number of vertex slots covered by the sealed arrays.
    #[inline]
    fn vertex_span(&self) -> usize {
        self.out_offsets.len() - 1
    }

    #[inline]
    fn out_slice(&self, v: VertexSlot) -> &[Hop] {
        &self.out_hops[ix(self.out_offsets[ix(v)])..ix(self.out_offsets[ix(v) + 1])]
    }

    #[inline]
    fn in_slice(&self, v: VertexSlot) -> &[EdgeSlot] {
        let r = ix(self.in_offsets[ix(v)])..ix(self.in_offsets[ix(v) + 1]);
        &self.in_targets[r]
    }

    /// Heap footprint of the sealed arrays.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.out_offsets.capacity() + self.in_offsets.capacity()) * size_of::<u32>()
            + self.out_hops.capacity() * size_of::<Hop>()
            + self.in_targets.capacity() * size_of::<EdgeSlot>()
    }
}

/// Which physical layout a topology's adjacency reads resolve to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyLayout {
    /// Never sealed (or sealing disabled): per-vertex adjacency `Vec`s.
    Adjacency,
    /// Sealed with an empty delta overlay: pure CSR.
    Csr,
    /// Sealed, with `n` vertexes diverted to the delta overlay by
    /// post-seal maintenance.
    Delta(usize),
}

impl std::fmt::Display for TopologyLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyLayout::Adjacency => write!(f, "adjacency"),
            TopologyLayout::Csr => write!(f, "csr"),
            TopologyLayout::Delta(n) => write!(f, "delta({n})"),
        }
    }
}

/// Adjacency-list graph topology with tuple pointers (EDBT 2018 §3.2,
/// Figure 4).
///
/// The topology stores **no attributes** — only identifiers, adjacency, and
/// `RowId` tuple pointers into the vertex/edge relational sources. Both
/// navigation directions are O(1): `vertex_by_id` hashes a user-visible id
/// to its slot, and each slot holds the tuple pointer back to storage.
///
/// Slots are stable: deletion marks a node dead and unlinks adjacency, but
/// never shifts other slots, so in-flight traversal state stays valid
/// across the serial-execution boundary.
#[derive(Debug, Clone)]
pub struct GraphTopology {
    /// Shared with every path traversed from this topology
    /// ([`GraphTopology::shared_name`]).
    name: std::sync::Arc<str>,
    directed: bool,
    vertexes: Vec<VertexNode>,
    edges: Vec<EdgeNode>,
    vertex_by_id: HashMap<VertexId, VertexSlot, FoldState>,
    edge_by_id: HashMap<EdgeId, EdgeSlot, FoldState>,
    live_vertexes: usize,
    live_edges: usize,
    /// Total adjacency-list entries across live vertexes (the traversal
    /// branching mass), maintained incrementally for O(1) fan-out stats.
    adjacency_entries: usize,
    /// Sealed CSR snapshot, if [`GraphTopology::seal`] has run. Vertexes
    /// whose `overlaid` flag is set bypass it (delta overlay); a re-seal
    /// replaces it whole, never mutates it.
    csr: Option<CsrLayout>,
    /// Number of vertexes currently diverted to the delta overlay; always
    /// 0 while unsealed.
    overlaid_vertexes: usize,
}

impl GraphTopology {
    pub fn new(name: impl Into<String>, directed: bool) -> Self {
        GraphTopology {
            name: name.into().into(),
            directed,
            vertexes: Vec::new(),
            edges: Vec::new(),
            vertex_by_id: HashMap::default(),
            edge_by_id: HashMap::default(),
            live_vertexes: 0,
            live_edges: 0,
            adjacency_entries: 0,
            csr: None,
            overlaid_vertexes: 0,
        }
    }

    /// Pre-size the arenas when the source cardinalities are known (graph
    /// view construction does a single pass over the sources).
    pub fn with_capacity(
        name: impl Into<String>,
        directed: bool,
        vertexes: usize,
        edges: usize,
    ) -> Self {
        let mut g = GraphTopology::new(name, directed);
        g.vertexes.reserve(vertexes);
        g.edges.reserve(edges);
        g.vertex_by_id.reserve(vertexes);
        g.edge_by_id.reserve(edges);
        g
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The view name as the handle paths carry in `PathData::graph_view`:
    /// a refcount, not a copy.
    pub fn shared_name(&self) -> std::sync::Arc<str> {
        self.name.clone()
    }

    pub fn directed(&self) -> bool {
        self.directed
    }

    pub fn vertex_count(&self) -> usize {
        self.live_vertexes
    }

    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Size of the vertex arena (live and dead slots): every `VertexSlot`
    /// this topology hands out is below it, so slot-indexed side arrays
    /// (the point-to-point search scratch) size themselves to this.
    #[inline]
    pub fn vertex_slot_span(&self) -> usize {
        self.vertexes.len()
    }

    // ---- construction / maintenance ---------------------------------------

    /// Divert a vertex to the delta overlay before mutating its adjacency:
    /// copy its sealed CSR runs back into the per-vertex `Vec`s (preserving
    /// order, so traversal emission order is layout-independent) and mark it
    /// overlaid. No-op while unsealed or when already overlaid.
    fn touch(&mut self, slot: VertexSlot) {
        let Some(csr) = &self.csr else { return };
        if self.vertexes[ix(slot)].overlaid {
            return;
        }
        // Vertexes added after sealing are born overlaid, so any
        // non-overlaid slot is covered by the sealed arrays.
        debug_assert!(ix(slot) < csr.vertex_span());
        let out = csr.out_slice(slot).to_vec();
        let inc = csr.in_slice(slot).to_vec();
        let node = &mut self.vertexes[ix(slot)];
        node.out = out;
        node.inc = inc;
        node.overlaid = true;
        self.overlaid_vertexes += 1;
    }

    /// Add a vertex. Fails on duplicate user-visible id.
    pub fn add_vertex(&mut self, id: VertexId, tuple: RowId) -> Result<VertexSlot> {
        if self.vertex_by_id.contains_key(&id) {
            return Err(Error::constraint(format!(
                "graph view `{}` already has vertex {id}",
                self.name
            )));
        }
        let slot = VertexSlot::try_from(self.vertexes.len()).map_err(|_| {
            Error::execution(format!(
                "graph view `{}` vertex arena is full ({} slots)",
                self.name,
                u32::MAX
            ))
        })?;
        // Post-seal vertexes have no CSR run: they live in the overlay
        // until the next re-seal.
        let overlaid = self.csr.is_some();
        self.vertexes.push(VertexNode {
            id,
            tuple,
            out: Vec::new(),
            inc: Vec::new(),
            alive: true,
            overlaid,
        });
        if overlaid {
            self.overlaid_vertexes += 1;
        }
        self.vertex_by_id.insert(id, slot);
        self.live_vertexes += 1;
        Ok(slot)
    }

    /// Add an edge between existing vertexes. Enforces the paper's §3.1
    /// constraint that edge endpoints are contained in the vertex set.
    pub fn add_edge(
        &mut self,
        id: EdgeId,
        from: VertexId,
        to: VertexId,
        tuple: RowId,
    ) -> Result<EdgeSlot> {
        if self.edge_by_id.contains_key(&id) {
            return Err(Error::constraint(format!(
                "graph view `{}` already has edge {id}",
                self.name
            )));
        }
        let from_slot = self.vertex_slot(from)?;
        let to_slot = self.vertex_slot(to)?;
        self.touch(from_slot);
        self.touch(to_slot);
        let slot = EdgeSlot::try_from(self.edges.len()).map_err(|_| {
            Error::execution(format!(
                "graph view `{}` edge arena is full ({} slots)",
                self.name,
                u32::MAX
            ))
        })?;
        // Each edge adds at most two adjacency entries; keeping the total
        // below u32::MAX keeps the sealed CSR offsets (u32) in range, so
        // `seal` stays infallible.
        if self.adjacency_entries + 2 > u32::MAX as usize { // cast-ok: constant widening
            return Err(Error::execution(format!(
                "graph view `{}` adjacency is full ({} entries)",
                self.name,
                u32::MAX
            )));
        }
        self.edges.push(EdgeNode {
            id,
            from: from_slot,
            to: to_slot,
            tuple,
            alive: true,
        });
        self.edge_by_id.insert(id, slot);
        self.vertexes[ix(from_slot)].out.push((slot, to_slot));
        self.adjacency_entries += 1;
        if self.directed {
            self.vertexes[ix(to_slot)].inc.push(slot);
        } else if to_slot != from_slot {
            // Undirected: the edge is traversable from both endpoints.
            self.vertexes[ix(to_slot)].out.push((slot, from_slot));
            self.adjacency_entries += 1;
        }
        self.live_edges += 1;
        Ok(slot)
    }

    /// Remove an edge by user-visible id, returning its tuple pointer so
    /// the caller can undo / clean up relational state.
    pub fn remove_edge(&mut self, id: EdgeId) -> Result<RowId> {
        let slot = self
            .edge_by_id
            .remove(&id)
            .ok_or_else(|| Error::constraint(format!("edge {id} not in graph `{}`", self.name)))?;
        let (from, to, tuple) = {
            let e = &mut self.edges[ix(slot)];
            e.alive = false;
            (e.from, e.to, e.tuple)
        };
        self.touch(from);
        self.touch(to);
        self.vertexes[ix(from)].out.retain(|&(s, _)| s != slot);
        self.adjacency_entries -= 1;
        if self.directed {
            self.vertexes[ix(to)].inc.retain(|&s| s != slot);
        } else if to != from {
            self.vertexes[ix(to)].out.retain(|&(s, _)| s != slot);
            self.adjacency_entries -= 1;
        }
        self.live_edges -= 1;
        Ok(tuple)
    }

    /// Remove a vertex by user-visible id. Refuses while incident edges
    /// remain (referential integrity of the edge source, §3.3).
    pub fn remove_vertex(&mut self, id: VertexId) -> Result<RowId> {
        let slot = self.vertex_slot(id)?;
        // Effective adjacency (CSR or overlay): a sealed vertex's Vecs are
        // empty, its edges live in the sealed arrays.
        if !self.out_hops(slot).is_empty() || !self.in_edges(slot).is_empty() {
            return Err(Error::constraint(format!(
                "vertex {id} in graph `{}` still has incident edges",
                self.name
            )));
        }
        self.vertex_by_id.remove(&id);
        let v = &mut self.vertexes[ix(slot)];
        v.alive = false;
        self.live_vertexes -= 1;
        Ok(v.tuple)
    }

    /// Rename a vertex's user-visible id (§3.3.1: identifier updates must
    /// keep the topology consistent with the relational source).
    pub fn rename_vertex(&mut self, old: VertexId, new: VertexId) -> Result<()> {
        if old == new {
            return Ok(());
        }
        if self.vertex_by_id.contains_key(&new) {
            return Err(Error::constraint(format!(
                "graph view `{}` already has vertex {new}",
                self.name
            )));
        }
        let slot = self.vertex_slot(old)?;
        self.vertex_by_id.remove(&old);
        self.vertex_by_id.insert(new, slot);
        self.vertexes[ix(slot)].id = new;
        Ok(())
    }

    /// Rename an edge's user-visible id.
    pub fn rename_edge(&mut self, old: EdgeId, new: EdgeId) -> Result<()> {
        if old == new {
            return Ok(());
        }
        if self.edge_by_id.contains_key(&new) {
            return Err(Error::constraint(format!(
                "graph view `{}` already has edge {new}",
                self.name
            )));
        }
        let slot = *self
            .edge_by_id
            .get(&old)
            .ok_or_else(|| Error::constraint(format!("edge {old} not in graph `{}`", self.name)))?;
        self.edge_by_id.remove(&old);
        self.edge_by_id.insert(new, slot);
        self.edges[ix(slot)].id = new;
        Ok(())
    }

    // ---- O(1) navigation ----------------------------------------------------

    /// Id → slot (the hash-map hop of Figure 4).
    #[inline]
    pub fn vertex_slot(&self, id: VertexId) -> Result<VertexSlot> {
        self.vertex_by_id.get(&id).copied().ok_or_else(|| {
            Error::constraint(format!("vertex {id} not in graph `{}`", self.name))
        })
    }

    /// Id → slot for edges.
    #[inline]
    pub fn edge_slot(&self, id: EdgeId) -> Result<EdgeSlot> {
        self.edge_by_id
            .get(&id)
            .copied()
            .ok_or_else(|| Error::constraint(format!("edge {id} not in graph `{}`", self.name)))
    }

    #[inline]
    pub fn has_vertex(&self, id: VertexId) -> bool {
        self.vertex_by_id.contains_key(&id)
    }

    #[inline]
    pub fn vertex_id(&self, slot: VertexSlot) -> VertexId {
        self.vertexes[ix(slot)].id
    }

    #[inline]
    pub fn edge_id(&self, slot: EdgeSlot) -> EdgeId {
        self.edges[ix(slot)].id
    }

    /// Vertex slot → tuple pointer.
    #[inline]
    pub fn vertex_tuple(&self, slot: VertexSlot) -> RowId {
        self.vertexes[ix(slot)].tuple
    }

    /// Edge slot → tuple pointer.
    #[inline]
    pub fn edge_tuple(&self, slot: EdgeSlot) -> RowId {
        self.edges[ix(slot)].tuple
    }

    /// Endpoints of an edge, as slots.
    #[inline]
    pub fn edge_endpoints(&self, slot: EdgeSlot) -> (VertexSlot, VertexSlot) {
        let e = &self.edges[ix(slot)];
        (e.from, e.to)
    }

    /// Outgoing hops of a vertex (all incident edges for undirected
    /// graphs), each edge with its far endpoint. Sealed vertexes resolve to
    /// a contiguous CSR run; overlaid (or never-sealed) vertexes to their
    /// per-vertex `Vec` — same slice, same order either way. This is the
    /// one adjacency read every traversal kernel expands through, so the
    /// sealed-CSR vs. delta-overlay split is resolved in one place.
    #[inline]
    pub fn out_hops(&self, slot: VertexSlot) -> &[Hop] {
        let node = &self.vertexes[ix(slot)];
        match &self.csr {
            Some(csr) if !node.overlaid => csr.out_slice(slot),
            _ => &node.out,
        }
    }

    /// Incoming edges (empty for undirected graphs — use `out_hops`).
    #[inline]
    pub fn in_edges(&self, slot: VertexSlot) -> &[EdgeSlot] {
        let node = &self.vertexes[ix(slot)];
        match &self.csr {
            Some(csr) if !node.overlaid => csr.in_slice(slot),
            _ => &node.inc,
        }
    }

    /// `FanOut` property (§5.2): O(1).
    #[inline]
    pub fn fan_out(&self, slot: VertexSlot) -> usize {
        self.out_hops(slot).len()
    }

    /// `FanIn` property (§5.2): O(1). Equal to `FanOut` for undirected
    /// graphs.
    #[inline]
    pub fn fan_in(&self, slot: VertexSlot) -> usize {
        if self.directed {
            self.in_edges(slot).len()
        } else {
            self.out_hops(slot).len()
        }
    }

    /// Given an edge incident to `from`, the vertex on the other side.
    /// (For directed graphs, traversal always moves from→to.) Traversals
    /// read it from the stored [`Hop`]; this re-derives it from the edge.
    #[inline]
    pub fn edge_target(&self, edge: EdgeSlot, from: VertexSlot) -> VertexSlot {
        let e = &self.edges[ix(edge)];
        if e.from == from {
            e.to
        } else {
            e.from
        }
    }

    /// Iterate live vertex slots.
    pub fn vertex_slots(&self) -> impl Iterator<Item = VertexSlot> + '_ {
        self.vertexes
            .iter()
            .enumerate()
            .filter(|(_, v)| v.alive)
            .map(|(i, _)| i as VertexSlot) // cast-ok: arena size < 2^32 enforced in add_vertex
    }

    /// Iterate live edge slots.
    pub fn edge_slots(&self) -> impl Iterator<Item = EdgeSlot> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.alive)
            .map(|(i, _)| i as EdgeSlot) // cast-ok: arena size < 2^32 enforced in add_edge
    }

    // ---- sealing --------------------------------------------------------------

    /// Compact the adjacency into sealed CSR arrays (out-hops and in-edges)
    /// and empty the delta overlay.
    ///
    /// The new arrays are built completely before any existing state is
    /// modified, so a caller that aborts *before* invoking `seal` (fault
    /// injection, memory-cap refusal of [`GraphTopology::sealed_bytes_estimate`])
    /// leaves a topology that is exactly as usable as before; `seal` itself
    /// never fails. Traversal emission order is unchanged: the CSR runs are
    /// copied from the per-vertex lists verbatim.
    pub fn seal(&mut self) {
        let span = self.vertexes.len();
        let mut out_offsets = Vec::with_capacity(span + 1);
        let mut out_hops = Vec::with_capacity(self.adjacency_entries);
        let mut in_offsets = Vec::with_capacity(span + 1);
        let mut in_targets =
            Vec::with_capacity(if self.directed { self.live_edges } else { 0 });
        out_offsets.push(0u32);
        in_offsets.push(0u32);
        for slot in 0..span as VertexSlot { // cast-ok: arena size < 2^32 enforced in add_vertex
            out_hops.extend_from_slice(self.out_hops(slot));
            in_targets.extend_from_slice(self.in_edges(slot));
            out_offsets.push(out_hops.len() as u32); // cast-ok: adjacency_entries < 2^32 enforced in add_edge
            in_offsets.push(in_targets.len() as u32); // cast-ok: in-entries <= live_edges < 2^32
        }
        self.csr = Some(CsrLayout {
            out_offsets,
            out_hops,
            in_offsets,
            in_targets,
        });
        for v in &mut self.vertexes {
            // Drop the Vec allocations outright: the overlay starts empty
            // and grows only for vertexes DML actually touches.
            v.out = Vec::new();
            v.inc = Vec::new();
            v.overlaid = false;
        }
        self.overlaid_vertexes = 0;
    }

    /// Whether a sealed CSR snapshot exists (possibly with an overlay).
    #[inline]
    pub fn is_sealed(&self) -> bool {
        self.csr.is_some()
    }

    /// Current physical layout, for `EXPLAIN ANALYZE`'s `layout=` note.
    pub fn layout(&self) -> TopologyLayout {
        match &self.csr {
            None => TopologyLayout::Adjacency,
            Some(_) if self.overlaid_vertexes == 0 => TopologyLayout::Csr,
            Some(_) => TopologyLayout::Delta(self.overlaid_vertexes),
        }
    }

    /// Number of vertexes currently diverted to the delta overlay.
    #[inline]
    pub fn overlaid_vertexes(&self) -> usize {
        self.overlaid_vertexes
    }

    /// Overlaid share of the live vertex set — the re-seal trigger
    /// statistic (0 while unsealed).
    pub fn overlay_fraction(&self) -> f64 {
        if self.live_vertexes == 0 {
            return if self.overlaid_vertexes == 0 { 0.0 } else { 1.0 };
        }
        self.overlaid_vertexes as f64 / self.live_vertexes as f64 // cast-ok: statistic, f64 precision ample for arena sizes
    }

    /// Exact byte size of the CSR arrays a [`GraphTopology::seal`] call
    /// would allocate right now — charged to the resource governor *before*
    /// sealing so a memory-cap abort happens with the topology untouched.
    pub fn sealed_bytes_estimate(&self) -> usize {
        use std::mem::size_of;
        let span = self.vertexes.len() + 1;
        let inc = if self.directed { self.live_edges } else { 0 };
        span * 2 * size_of::<u32>()
            + self.adjacency_entries * size_of::<Hop>()
            + inc * size_of::<EdgeSlot>()
    }

    // ---- statistics -----------------------------------------------------------

    /// Average traversal branching factor `F` (§6.3's catalog statistic),
    /// in O(1): the adjacency-entry count is maintained incrementally on
    /// every edge insert/delete (the paper maintains the same statistic
    /// with a background thread).
    pub fn avg_fan_out(&self) -> f64 {
        if self.live_vertexes == 0 {
            return 0.0;
        }
        self.adjacency_entries as f64 / self.live_vertexes as f64 // cast-ok: statistic, f64 precision ample for arena sizes
    }

    /// Topology statistics: the paper's optimizer keeps average fan-out per
    /// graph view in the system catalog (§6.3) to choose BFS vs. DFS.
    pub fn stats(&self) -> GraphStats {
        GraphStats {
            vertex_count: self.live_vertexes,
            edge_count: self.live_edges,
            avg_fan_out: self.avg_fan_out(),
            memory_bytes: self.memory_bytes(),
            sealed_bytes: self.sealed_bytes(),
            overlay_bytes: self.overlay_bytes(),
        }
    }

    /// Heap bytes held by the sealed CSR arrays (0 while unsealed).
    pub fn sealed_bytes(&self) -> usize {
        self.csr.as_ref().map_or(0, |c| c.bytes())
    }

    /// Heap bytes held by the per-vertex adjacency `Vec`s of *overlaid*
    /// vertexes (0 while unsealed: pre-seal adjacency is the baseline
    /// layout, not an overlay, and is accounted in `memory_bytes`).
    pub fn overlay_bytes(&self) -> usize {
        use std::mem::size_of;
        if self.csr.is_none() {
            return 0;
        }
        self.vertexes
            .iter()
            .filter(|v| v.overlaid)
            .map(|v| v.out.capacity() * size_of::<Hop>() + v.inc.capacity() * size_of::<EdgeSlot>())
            .sum()
    }

    /// Rough resident size of the topology (arenas + adjacency — sealed
    /// arrays and overlay Vecs included — + id maps), used by the
    /// graph-view build-cost experiment and the governor's seal accounting.
    /// Attribute data is NOT included — it lives in the relational sources
    /// (§3.2's decoupling).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let vertex_fixed = self.vertexes.capacity() * size_of::<VertexNode>();
        // Per-vertex Vec heap: the whole adjacency when unsealed, just the
        // delta overlay after sealing (sealed vertexes hold empty Vecs).
        let adjacency: usize = self
            .vertexes
            .iter()
            .map(|v| v.out.capacity() * size_of::<Hop>() + v.inc.capacity() * size_of::<EdgeSlot>())
            .sum();
        let edge_fixed = self.edges.capacity() * size_of::<EdgeNode>();
        // HashMap entries: key + value + bucket overhead estimate.
        let map_entry = size_of::<(VertexId, VertexSlot)>() * 2;
        let maps = self.vertex_by_id.len() * map_entry + self.edge_by_id.len() * map_entry;
        vertex_fixed + adjacency + edge_fixed + maps + self.sealed_bytes()
    }

    // ---- dumps ----------------------------------------------------------------

    /// Deterministic dump of the topology: every vertex `(id, tuple)` and
    /// every edge `(id, from, to, tuple)` sorted by id, independent of
    /// insertion order, internal slot layout, and — by construction —
    /// whether the adjacency is sealed, overlaid, or plain. Two topologies
    /// with equal dumps are indistinguishable to queries; the property
    /// suite uses this to prove seal → DML → re-seal round-trips, and the
    /// robustness battery to prove all-or-nothing maintenance.
    pub fn topology_dump(&self) -> String {
        let mut verts: Vec<(VertexId, u64)> = self
            .vertex_slots()
            .map(|s| (self.vertex_id(s), self.vertex_tuple(s).0))
            .collect();
        verts.sort_unstable();
        let mut edges: Vec<(EdgeId, VertexId, VertexId, u64)> = self
            .edge_slots()
            .map(|s| {
                let (f, t) = self.edge_endpoints(s);
                (
                    self.edge_id(s),
                    self.vertex_id(f),
                    self.vertex_id(t),
                    self.edge_tuple(s).0,
                )
            })
            .collect();
        edges.sort_unstable();
        let mut out = format!(
            "graph {} directed={} V={} E={}\n",
            self.name,
            self.directed,
            verts.len(),
            edges.len()
        );
        for (id, tuple) in verts {
            out.push_str(&format!("v {id} @{tuple}\n"));
        }
        for (id, from, to, tuple) in edges {
            out.push_str(&format!("e {id} {from}->{to} @{tuple}\n"));
        }
        out
    }
}

/// Statistics snapshot for a graph view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    pub vertex_count: usize,
    pub edge_count: usize,
    /// Average traversal branching factor `F` used by the §6.3 heuristic
    /// (`use BFS iff F < L`).
    pub avg_fan_out: f64,
    /// Approximate topology memory footprint in bytes (includes the sealed
    /// arrays and the overlay).
    pub memory_bytes: usize,
    /// Bytes held by the sealed CSR arrays (0 while unsealed).
    pub sealed_bytes: usize,
    /// Bytes held by delta-overlay adjacency `Vec`s (0 while unsealed).
    pub overlay_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond(directed: bool) -> GraphTopology {
        // 1 -> 2 -> 4, 1 -> 3 -> 4
        let mut g = GraphTopology::new("g", directed);
        for v in 1..=4 {
            g.add_vertex(v, RowId(v as u64)).unwrap(); // cast-ok: test ids are small positive
        }
        g.add_edge(10, 1, 2, RowId(10)).unwrap();
        g.add_edge(11, 1, 3, RowId(11)).unwrap();
        g.add_edge(12, 2, 4, RowId(12)).unwrap();
        g.add_edge(13, 3, 4, RowId(13)).unwrap();
        g
    }

    #[test]
    fn directed_adjacency_and_fan() {
        let g = diamond(true);
        let v1 = g.vertex_slot(1).unwrap();
        let v4 = g.vertex_slot(4).unwrap();
        assert_eq!(g.fan_out(v1), 2);
        assert_eq!(g.fan_in(v1), 0);
        assert_eq!(g.fan_out(v4), 0);
        assert_eq!(g.fan_in(v4), 2);
        assert_eq!(g.out_hops(v1).len(), 2);
        assert_eq!(g.in_edges(v4).len(), 2);
    }

    #[test]
    fn undirected_adjacency_is_symmetric() {
        let g = diamond(false);
        let v1 = g.vertex_slot(1).unwrap();
        let v4 = g.vertex_slot(4).unwrap();
        assert_eq!(g.fan_out(v1), 2);
        assert_eq!(g.fan_in(v1), 2);
        assert_eq!(g.fan_out(v4), 2);
        // traversal from v4 reaches 2 and 3
        let mut targets: Vec<_> = g
            .out_hops(v4)
            .iter()
            .map(|&(e, _)| g.vertex_id(g.edge_target(e, v4)))
            .collect();
        targets.sort();
        assert_eq!(targets, vec![2, 3]);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut g = diamond(true);
        assert!(g.add_vertex(1, RowId(99)).is_err());
        assert!(g.add_edge(10, 2, 3, RowId(99)).is_err());
    }

    #[test]
    fn edge_endpoints_must_exist() {
        let mut g = GraphTopology::new("g", true);
        g.add_vertex(1, RowId(1)).unwrap();
        assert!(g.add_edge(10, 1, 99, RowId(10)).is_err());
        assert!(g.add_edge(10, 99, 1, RowId(10)).is_err());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn remove_edge_unlinks_adjacency() {
        let mut g = diamond(true);
        let tuple = g.remove_edge(10).unwrap();
        assert_eq!(tuple, RowId(10));
        assert_eq!(g.edge_count(), 3);
        let v1 = g.vertex_slot(1).unwrap();
        assert_eq!(g.fan_out(v1), 1);
        let v2 = g.vertex_slot(2).unwrap();
        assert_eq!(g.fan_in(v2), 0);
        assert!(g.remove_edge(10).is_err());
    }

    #[test]
    fn remove_vertex_requires_no_edges() {
        let mut g = diamond(true);
        assert!(g.remove_vertex(2).is_err());
        g.remove_edge(10).unwrap();
        g.remove_edge(12).unwrap();
        let tuple = g.remove_vertex(2).unwrap();
        assert_eq!(tuple, RowId(2));
        assert_eq!(g.vertex_count(), 3);
        assert!(!g.has_vertex(2));
        // Re-adding the id afterwards is allowed.
        g.add_vertex(2, RowId(22)).unwrap();
        assert!(g.has_vertex(2));
    }

    #[test]
    fn undirected_remove_edge_unlinks_both_sides() {
        let mut g = diamond(false);
        g.remove_edge(10).unwrap();
        let v2 = g.vertex_slot(2).unwrap();
        assert_eq!(g.fan_out(v2), 1); // only edge 12 remains
    }

    #[test]
    fn rename_vertex_keeps_topology() {
        let mut g = diamond(true);
        g.rename_vertex(1, 100).unwrap();
        assert!(!g.has_vertex(1));
        let slot = g.vertex_slot(100).unwrap();
        assert_eq!(g.fan_out(slot), 2);
        assert_eq!(g.vertex_id(slot), 100);
        // collision rejected
        assert!(g.rename_vertex(100, 2).is_err());
        // no-op rename ok
        g.rename_vertex(100, 100).unwrap();
    }

    #[test]
    fn rename_edge() {
        let mut g = diamond(true);
        g.rename_edge(10, 1000).unwrap();
        assert!(g.edge_slot(10).is_err());
        let slot = g.edge_slot(1000).unwrap();
        assert_eq!(g.edge_id(slot), 1000);
        assert!(g.rename_edge(1000, 11).is_err());
    }

    #[test]
    fn stats_avg_fanout() {
        let g = diamond(true);
        let s = g.stats();
        assert_eq!(s.vertex_count, 4);
        assert_eq!(s.edge_count, 4);
        assert!((s.avg_fan_out - 1.0).abs() < 1e-12); // 4 edges / 4 vertexes
        assert!(s.memory_bytes > 0);

        let g = diamond(false);
        // undirected: each edge in two lists -> branching factor 2
        assert!((g.stats().avg_fan_out - 2.0).abs() < 1e-12);
    }

    #[test]
    fn tuple_pointers_roundtrip() {
        let g = diamond(true);
        let v1 = g.vertex_slot(1).unwrap();
        assert_eq!(g.vertex_tuple(v1), RowId(1));
        let e = g.edge_slot(12).unwrap();
        assert_eq!(g.edge_tuple(e), RowId(12));
    }

    /// Adjacency observations that must be layout-independent.
    fn observe(g: &GraphTopology) -> Vec<(VertexId, Vec<(EdgeId, VertexId)>, usize, usize)> {
        let mut all: Vec<_> = g
            .vertex_slots()
            .map(|v| {
                let hops: Vec<(EdgeId, VertexId)> = g
                    .out_hops(v)
                    .iter()
                    .map(|&(e, t)| (g.edge_id(e), g.vertex_id(t)))
                    .collect();
                (g.vertex_id(v), hops, g.fan_out(v), g.fan_in(v))
            })
            .collect();
        all.sort();
        all
    }

    /// Every stored hop's far endpoint agrees with the one re-derived from
    /// the edge arena.
    fn assert_heads_stored(g: &GraphTopology, layout: TopologyLayout) {
        assert_eq!(g.layout(), layout);
        for v in g.vertex_slots() {
            for &(e, t) in g.out_hops(v) {
                assert_eq!(t, g.edge_target(e, v), "{layout}: edge {}", g.edge_id(e));
            }
        }
    }

    #[test]
    fn seal_preserves_adjacency_and_order() -> Result<()> {
        for directed in [true, false] {
            let mut g = diamond(directed);
            assert_heads_stored(&g, TopologyLayout::Adjacency);
            let before = observe(&g);
            let dump = g.topology_dump();
            g.seal();
            assert_heads_stored(&g, TopologyLayout::Csr);
            assert_eq!(observe(&g), before, "directed={directed}");
            assert_eq!(g.topology_dump(), dump);
            // A post-seal insert and a relink (edge 12 moves from 2 -> 4 to
            // 3 -> 1, as UPDATE of its endpoints does) read from the overlay.
            g.add_vertex(5, RowId(5))?;
            g.add_edge(14, 4, 5, RowId(14))?;
            g.remove_edge(12)?;
            g.add_edge(12, 3, 1, RowId(12))?;
            assert_heads_stored(&g, TopologyLayout::Delta(5));
        }
        // Undirected self-loop: one hop, back to the vertex itself.
        let mut g = diamond(false);
        let e = g.add_edge(15, 2, 2, RowId(15))?;
        assert_heads_stored(&g, TopologyLayout::Adjacency);
        let v2 = g.vertex_slot(2)?;
        assert!(g.out_hops(v2).contains(&(e, v2)));
        g.seal();
        assert_heads_stored(&g, TopologyLayout::Csr);
        Ok(())
    }

    #[test]
    fn post_seal_dml_overlays_touched_vertexes_only() {
        let mut g = diamond(true);
        g.seal();
        g.remove_edge(10).unwrap(); // 1 -> 2
        assert_eq!(g.layout(), TopologyLayout::Delta(2));
        assert_eq!(g.overlaid_vertexes(), 2);
        let v1 = g.vertex_slot(1).unwrap();
        let v2 = g.vertex_slot(2).unwrap();
        let v3 = g.vertex_slot(3).unwrap();
        assert_eq!(g.fan_out(v1), 1);
        assert_eq!(g.fan_in(v2), 0);
        // Untouched vertex still reads the sealed arrays.
        assert_eq!(g.fan_out(v3), 1);
        // Mutating through the overlay round-trips against a never-sealed twin.
        let mut plain = diamond(true);
        plain.remove_edge(10).unwrap();
        assert_eq!(observe(&g), observe(&plain));
        assert_eq!(g.topology_dump(), plain.topology_dump());
    }

    #[test]
    fn post_seal_vertexes_are_born_overlaid() {
        let mut g = diamond(true);
        g.seal();
        g.add_vertex(5, RowId(5)).unwrap();
        g.add_edge(14, 4, 5, RowId(14)).unwrap();
        assert_eq!(g.layout(), TopologyLayout::Delta(2)); // v4 touched + v5 born overlaid
        let v4 = g.vertex_slot(4).unwrap();
        let v5 = g.vertex_slot(5).unwrap();
        assert_eq!(g.fan_out(v4), 1);
        assert_eq!(g.fan_in(v5), 1);
        assert_eq!(g.out_hops(v4), [(g.edge_slot(14).unwrap(), v5)]);
        // Re-seal folds the overlay back in.
        g.seal();
        assert_eq!(g.layout(), TopologyLayout::Csr);
        assert_eq!(g.fan_out(v4), 1);
        assert_eq!(g.overlaid_vertexes(), 0);
    }

    #[test]
    fn reseal_after_dml_burst_matches_never_sealed() {
        let mut sealed = diamond(false);
        let mut plain = diamond(false);
        sealed.seal();
        for g in [&mut sealed, &mut plain] {
            g.remove_edge(11).unwrap();
            g.add_vertex(9, RowId(9)).unwrap();
            g.add_edge(20, 9, 1, RowId(20)).unwrap();
            g.add_edge(21, 9, 9, RowId(21)).unwrap(); // self-loop
            g.remove_edge(20).unwrap();
            g.rename_vertex(2, 200).unwrap();
        }
        sealed.seal();
        assert_eq!(observe(&sealed), observe(&plain));
        assert_eq!(sealed.topology_dump(), plain.topology_dump());
        assert_eq!(sealed.avg_fan_out(), plain.avg_fan_out());
    }

    #[test]
    fn sealed_vertex_removal_checks_csr_incidence() {
        let mut g = diamond(true);
        g.seal();
        // v2 still has sealed edges: refuse (and leave it un-overlaid).
        assert!(g.remove_vertex(2).is_err());
        assert_eq!(g.layout(), TopologyLayout::Csr);
        g.remove_edge(10).unwrap();
        g.remove_edge(12).unwrap();
        g.remove_vertex(2).unwrap();
        assert_eq!(g.vertex_count(), 3);
    }

    #[test]
    fn seal_accounting_and_estimate() {
        let mut g = diamond(true);
        let est = g.sealed_bytes_estimate();
        assert!(est > 0);
        g.seal();
        let s = g.stats();
        assert_eq!(s.sealed_bytes, est);
        assert_eq!(s.overlay_bytes, 0);
        assert!(s.memory_bytes >= s.sealed_bytes);
        g.remove_edge(10).unwrap();
        let s = g.stats();
        assert!(s.overlay_bytes > 0);
        assert!((g.overlay_fraction() - 0.5).abs() < 1e-12); // 2 of 4
    }

    #[test]
    fn layout_labels() {
        let mut g = diamond(true);
        assert_eq!(g.layout().to_string(), "adjacency");
        g.seal();
        assert_eq!(g.layout().to_string(), "csr");
        g.remove_edge(10).unwrap();
        assert_eq!(g.layout().to_string(), "delta(2)");
    }

    #[test]
    fn self_loop_undirected_not_double_linked() {
        let mut g = GraphTopology::new("g", false);
        g.add_vertex(1, RowId(1)).unwrap();
        g.add_edge(10, 1, 1, RowId(10)).unwrap();
        let v1 = g.vertex_slot(1).unwrap();
        assert_eq!(g.fan_out(v1), 1);
        g.remove_edge(10).unwrap();
        assert_eq!(g.fan_out(v1), 0);
    }
}
