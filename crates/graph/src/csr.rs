//! Compressed sparse row (CSR) representation of undirected simple graphs.
//!
//! Vertices are dense `u32` ids in `0..n`. The CSR layout keeps each
//! vertex's neighbor list sorted, which gives `O(log d)` adjacency queries
//! and cache-friendly BFS sweeps over the large (up to ~10^4-router,
//! ~10^5-link) topologies this reproduction constructs.

/// Vertex id type. Topologies in this suite stay well below 2^32 vertices.
pub type VertexId = u32;

/// An immutable undirected simple graph in CSR form.
///
/// No self-loops and no parallel edges; [`GraphBuilder`] silently
/// deduplicates both. Neighbor lists are sorted ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<VertexId>,
}

impl Graph {
    /// Build directly from an edge list over `n` vertices.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in edges {
            b.add_edge(u, v);
        }
        b.build()
    }

    /// An edgeless graph on `n` vertices.
    pub fn empty(n: usize) -> Self {
        Graph {
            offsets: vec![0; n + 1],
            neighbors: Vec::new(),
        }
    }

    /// The complete graph K_n.
    pub fn complete(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for u in 0..n as VertexId {
            for v in (u + 1)..n as VertexId {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    /// The cycle C_n (n ≥ 3).
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "cycle needs at least 3 vertices");
        let mut b = GraphBuilder::new(n);
        for u in 0..n as VertexId {
            b.add_edge(u, ((u as usize + 1) % n) as VertexId);
        }
        b.build()
    }

    /// The path graph L_n on n vertices.
    pub fn path(n: usize) -> Self {
        let mut b = GraphBuilder::new(n);
        for u in 1..n as VertexId {
            b.add_edge(u - 1, u);
        }
        b.build()
    }

    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Sorted neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.neighbors[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Whether `{u, v}` is an edge (binary search; self-queries are false).
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Number of directed edges (CSR adjacency slots): `2·m`.
    ///
    /// Every directed edge `u → v` has a dense id in
    /// `0..directed_edge_count()`, so per-link state can live in flat
    /// arrays indexed by [`Graph::edge_id`] instead of hash maps.
    #[inline]
    pub fn directed_edge_count(&self) -> usize {
        self.neighbors.len()
    }

    /// Dense id of the directed edge `u → v`: the CSR slot holding `v`
    /// in `u`'s sorted neighbor list (`O(log deg(u))`), or `None` when
    /// `{u, v}` is not an edge. Ids are stable for a given graph and
    /// contiguous per source vertex: `edge_id(u, ·)` covers
    /// `offsets[u]..offsets[u+1]`.
    #[inline]
    pub fn edge_id(&self, u: VertexId, v: VertexId) -> Option<u32> {
        let base = self.offsets[u as usize];
        self.neighbors[base..self.offsets[u as usize + 1]]
            .binary_search(&v)
            .ok()
            .map(|pos| (base + pos) as u32)
    }

    /// Target vertex of a directed edge id (the `v` of `u → v`).
    #[inline]
    pub fn edge_target(&self, e: u32) -> VertexId {
        self.neighbors[e as usize]
    }

    /// Source vertex of a directed edge id (the `u` of `u → v`), by
    /// binary search over the offset array. `O(log n)` — fine for
    /// reporting; hot paths should carry the source alongside the id.
    #[inline]
    pub fn edge_source(&self, e: u32) -> VertexId {
        debug_assert!((e as usize) < self.neighbors.len());
        // partition_point returns the first offset > e; its predecessor
        // owns the slot.
        (self.offsets.partition_point(|&o| o <= e as usize) - 1) as VertexId
    }

    /// Both endpoints `(u, v)` of a directed edge id.
    #[inline]
    pub fn edge_endpoints(&self, e: u32) -> (VertexId, VertexId) {
        (self.edge_source(e), self.edge_target(e))
    }

    /// The contiguous range of directed-edge ids leaving `u`; zipping it
    /// with [`Graph::neighbors`]`(u)` pairs each id with its target in
    /// `O(deg(u))`, with no per-edge lookups.
    #[inline]
    pub fn edge_range(&self, u: VertexId) -> std::ops::Range<u32> {
        self.offsets[u as usize] as u32..self.offsets[u as usize + 1] as u32
    }

    /// Iterator over each undirected edge once, as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n() as VertexId)
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
            .filter(|&(u, v)| u < v)
    }

    /// Maximum degree (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.n() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Minimum degree (0 for the empty graph).
    pub fn min_degree(&self) -> usize {
        (0..self.n() as VertexId)
            .map(|v| self.degree(v))
            .min()
            .unwrap_or(0)
    }

    /// Whether every vertex has the same degree.
    pub fn is_regular(&self) -> bool {
        self.max_degree() == self.min_degree()
    }

    /// A copy of the graph with the listed edges removed (order/direction
    /// of each pair irrelevant; unknown edges ignored). Used by the fault-
    /// tolerance study to knock out random links.
    pub fn without_edges(&self, removed: &[(VertexId, VertexId)]) -> Graph {
        use std::collections::HashSet;
        let kill: HashSet<(VertexId, VertexId)> = removed
            .iter()
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        let edges: Vec<(VertexId, VertexId)> = self.edges().filter(|e| !kill.contains(e)).collect();
        Graph::from_edges(self.n(), &edges)
    }

    /// The disjoint union of `self` and `other` (other's ids shifted by
    /// `self.n()`).
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let off = self.n() as VertexId;
        let mut b = GraphBuilder::new(self.n() + other.n());
        for (u, v) in self.edges() {
            b.add_edge(u, v);
        }
        for (u, v) in other.edges() {
            b.add_edge(u + off, v + off);
        }
        b.build()
    }

    /// Check structural invariants; used by tests and debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n() as VertexId;
        if *self.offsets.last().unwrap() != self.neighbors.len() {
            return Err("offset tail mismatch".into());
        }
        for v in 0..n {
            let nb = self.neighbors(v);
            for w in nb.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("neighbors of {v} not strictly sorted"));
                }
            }
            for &u in nb {
                if u >= n {
                    return Err(format!("neighbor {u} of {v} out of range"));
                }
                if u == v {
                    return Err(format!("self-loop at {v}"));
                }
                if !self.has_edge(u, v) {
                    return Err(format!("asymmetric edge ({v},{u})"));
                }
            }
        }
        Ok(())
    }
}

/// Incremental edge-list builder producing a [`Graph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Start a graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add the undirected edge `{u, v}`. Self-loops are ignored (the star
    /// product drops them per §6.1.2); duplicates are deduplicated at
    /// build time.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u},{v}) out of range (n={})",
            self.n
        );
        if u == v {
            return;
        }
        let e = if u < v { (u, v) } else { (v, u) };
        self.edges.push(e);
    }

    /// Finish into a CSR [`Graph`].
    pub fn build(mut self) -> Graph {
        self.edges.sort_unstable();
        self.edges.dedup();
        let mut deg = vec![0usize; self.n];
        for &(u, v) in &self.edges {
            deg[u as usize] += 1;
            deg[v as usize] += 1;
        }
        let mut offsets = vec![0usize; self.n + 1];
        for i in 0..self.n {
            offsets[i + 1] = offsets[i] + deg[i];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as VertexId; self.edges.len() * 2];
        for &(u, v) in &self.edges {
            neighbors[cursor[u as usize]] = v;
            cursor[u as usize] += 1;
            neighbors[cursor[v as usize]] = u;
            cursor[v as usize] += 1;
        }
        // Each list was filled in globally sorted edge order: entries for u
        // arrive with ascending v when u is the smaller endpoint, but the
        // mirrored entries interleave, so sort each list.
        let g = {
            let mut g = Graph { offsets, neighbors };
            for v in 0..self.n {
                let (s, e) = (g.offsets[v], g.offsets[v + 1]);
                g.neighbors[s..e].sort_unstable();
            }
            g
        };
        debug_assert!(g.validate().is_ok());
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_dedups_and_ignores_self_loops() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1);
        b.add_edge(1, 0);
        b.add_edge(0, 1);
        b.add_edge(2, 2);
        let g = b.build();
        assert_eq!(g.m(), 1);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[] as &[VertexId]);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn complete_graph_shape() {
        let g = Graph::complete(6);
        assert_eq!(g.n(), 6);
        assert_eq!(g.m(), 15);
        assert!(g.is_regular());
        assert_eq!(g.max_degree(), 5);
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(g.has_edge(u, v), u != v);
            }
        }
    }

    #[test]
    fn cycle_and_path_shapes() {
        let c = Graph::cycle(5);
        assert_eq!(c.m(), 5);
        assert!(c.is_regular());
        assert_eq!(c.max_degree(), 2);

        let p = Graph::path(5);
        assert_eq!(p.m(), 4);
        assert_eq!(p.degree(0), 1);
        assert_eq!(p.degree(2), 2);
    }

    #[test]
    fn edges_iterator_unique() {
        let g = Graph::complete(5);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), g.m());
        let mut sorted = edges.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), edges.len());
        for (u, v) in edges {
            assert!(u < v);
        }
    }

    #[test]
    fn without_edges_removes() {
        let g = Graph::cycle(4);
        let h = g.without_edges(&[(1, 0), (2, 3)]);
        assert_eq!(h.m(), 2);
        assert!(!h.has_edge(0, 1));
        assert!(!h.has_edge(2, 3));
        assert!(h.has_edge(1, 2));
        assert!(h.has_edge(3, 0));
        h.validate().unwrap();
    }

    #[test]
    fn disjoint_union_shifts() {
        let g = Graph::complete(3).disjoint_union(&Graph::path(2));
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 4);
        assert!(g.has_edge(3, 4));
        assert!(!g.has_edge(2, 3));
    }

    #[test]
    fn edge_ids_are_dense_and_invertible() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 3), (3, 4)]);
        assert_eq!(g.directed_edge_count(), 2 * g.m());
        // Every directed edge gets a unique id; endpoints round-trip.
        let mut seen = vec![false; g.directed_edge_count()];
        for u in 0..g.n() as VertexId {
            for &v in g.neighbors(u) {
                let e = g.edge_id(u, v).unwrap();
                assert!(!seen[e as usize], "duplicate id {e}");
                seen[e as usize] = true;
                assert_eq!(g.edge_source(e), u);
                assert_eq!(g.edge_target(e), v);
                assert_eq!(g.edge_endpoints(e), (u, v));
            }
        }
        assert!(seen.iter().all(|&s| s), "ids not dense");
        // Non-edges have no id.
        assert_eq!(g.edge_id(0, 2), None);
        assert_eq!(g.edge_id(4, 0), None);
    }

    #[test]
    fn edge_range_zips_with_neighbors() {
        let g = Graph::cycle(6);
        for u in 0..g.n() as VertexId {
            let r = g.edge_range(u);
            assert_eq!(r.len(), g.degree(u));
            for (e, &v) in r.zip(g.neighbors(u)) {
                assert_eq!(g.edge_id(u, v), Some(e));
            }
        }
        // Isolated vertices get an empty range.
        let g = Graph::empty(3);
        assert!(g.edge_range(1).is_empty());
    }
}
