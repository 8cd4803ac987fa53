//! Routing state: minimal next-hop tables and the §9.3 routing schemes.
//!
//! A [`RouteTable`] stores, for every (router, destination-router) pair,
//! the set of output ports lying on minimal paths — the "all minpaths"
//! tables the paper attributes to SF/BF (and that HyperX computes by
//! coordinate alignment). [`RoutingKind`] selects how the table is used:
//!
//! * `MinSingle` — one deterministic minimal path per pair;
//! * `MinMulti` — a uniformly random minimal port at each hop;
//! * `Ugal` — UGAL-L (§9.3): at the source, compare the minimal path
//!   against 4 random Valiant intermediates using local output-queue
//!   occupancy × remaining hops, then route minimally per phase.

use polarstar_graph::Graph;
use polarstar_topo::fault::{FaultMask, FaultSet};
use polarstar_topo::network::{NetworkSpec, RoutingPolicy};
use polarstar_topo::oracle::{masked_distance_block, PathOracle, RouteError};
use rayon::prelude::*;

/// How packets pick output ports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingKind {
    /// Deterministic single minimal path.
    MinSingle,
    /// Random minimal port per hop (oblivious multipath).
    MinMulti,
    /// Valiant load balancing: every packet misroutes through a uniform
    /// random intermediate router, then routes minimally.
    Valiant,
    /// UGAL-L: adaptive choice between minimal and Valiant misrouting,
    /// sampling this many random intermediates (the paper uses 4).
    Ugal {
        /// Number of Valiant candidates sampled at injection.
        candidates: usize,
    },
}

impl RoutingKind {
    /// The paper's UGAL configuration.
    pub fn ugal4() -> Self {
        RoutingKind::Ugal { candidates: 4 }
    }

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingKind::MinSingle | RoutingKind::MinMulti => "MIN",
            RoutingKind::Valiant => "VAL",
            RoutingKind::Ugal { .. } => "UGAL",
        }
    }
}

/// Per-destination distance and minimal-port table.
///
/// All state lives in flat arenas — `dist`, the (port_offsets, ports)
/// CSR pair, and the (nbr_offsets, nbrs) neighbor CSR pair — so lookups
/// on the simulator hot path are offset arithmetic into contiguous
/// memory with no pointer chasing.
#[derive(Clone)]
pub struct RouteTable {
    n: usize,
    /// dist[dst * n + r] = hop distance from router r to dst.
    dist: Vec<u16>,
    /// Flattened minimal-port lists: for (r, dst), ports[..] are indices
    /// into r's neighbor list that decrease the distance to dst.
    port_offsets: Vec<u32>,
    ports: Vec<u8>,
    /// Neighbor CSR: router r's neighbors are
    /// nbrs[nbr_offsets[r]..nbr_offsets[r + 1]], in port order.
    nbr_offsets: Vec<u32>,
    nbrs: Vec<u32>,
    /// The compiled fault epoch `dist` and `ports` were assembled under
    /// (bitless when pristine).
    mask: FaultMask,
}

/// What the port fill asks of a neighbor when no port may match — the
/// router is the destination or cannot reach it: one below
/// [`RouteTable::UNREACHABLE`], a value no arena entry takes.
const NO_HOP: u16 = RouteTable::UNREACHABLE - 1;

/// Whether the `n × n` distance arena `d` reads the same by rows and by
/// columns.
fn is_symmetric(d: &[u16], n: usize) -> bool {
    (0..n).all(|a| (0..a).all(|b| d[a * n + b] == d[b * n + a]))
}

/// Copy a graph's adjacency into one CSR pair (offsets are `n + 1`).
fn neighbor_csr(g: &Graph) -> (Vec<u32>, Vec<u32>) {
    let n = g.n();
    let total: usize = (0..n as u32).map(|r| g.degree(r)).sum();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut nbrs = Vec::with_capacity(total);
    offsets.push(0u32);
    for r in 0..n as u32 {
        nbrs.extend_from_slice(g.neighbors(r));
        offsets.push(nbrs.len() as u32);
    }
    (offsets, nbrs)
}

impl RouteTable {
    /// Distance sentinel for pairs no surviving path connects. Never a
    /// real distance: [`RouteTable::for_spec`] refuses graphs of 65 535
    /// routers or more, so a real one is at most 65 533.
    pub const UNREACHABLE: u16 = u16::MAX;

    /// Build the table a spec asks for — one of the two ways a table is
    /// made; the other is [`RouteTable::remask`] of an existing one. The
    /// spec's [`RoutingPolicy`] picks between flat and hierarchical
    /// (over `spec.group`) minimal tables, and its [`FaultSet`] masks
    /// failed links/routers out of both distances and minimal-port
    /// sets, while the neighbor CSR keeps the *pristine* port numbering
    /// so engine-side port indices stay aligned with the physical
    /// topology.
    ///
    /// # Panics
    /// If the graph is empty or too large for `u8` ports or `u16`
    /// distances, or the policy is hierarchical and the group length
    /// does not match the graph.
    pub fn for_spec(spec: &NetworkSpec) -> Self {
        let graph = &spec.graph;
        let n = graph.n();
        assert!(n > 0);
        assert!(graph.max_degree() < 256, "ports are stored as u8");
        assert!(
            n < RouteTable::UNREACHABLE as usize,
            "distances are stored as u16: {n} routers could reach the sentinel"
        );
        Self::assemble(neighbor_csr(graph), spec, spec.faults().compile(graph))
    }

    /// The table for a new cumulative fault set over this table's
    /// pristine neighbor CSR — and with it the port numbering the
    /// engine's flattened state is indexed by.
    ///
    /// This is the route-table *epoch* path of live fault schedules. A
    /// set that compiles to the mask this table was assembled under
    /// (a recovery back to it, faults naming no link of the graph) is
    /// this table again and costs one copy; any other reruns the
    /// assembler's two passes (block BFS, port fill) — tens of
    /// milliseconds at 1 064 routers — over the cloned CSR, never
    /// re-derived from the graph, so port indices stay valid across
    /// the switch. Holders of a shared table compare
    /// [`RouteTable::mask`] themselves and skip even the copy. The
    /// policy and group structure come from `spec` (which must be the
    /// spec this table was built for).
    pub fn remask(&self, spec: &NetworkSpec, faults: &FaultSet) -> RouteTable {
        let network = (spec.graph.n(), spec.graph.directed_edge_count());
        assert_eq!(
            (self.n, self.num_links()),
            network,
            "spec does not match this table (routers, directed links)"
        );
        let mask = faults.compile(&spec.graph);
        if mask == self.mask {
            return self.clone();
        }
        Self::assemble((self.nbr_offsets.clone(), self.nbrs.clone()), spec, mask)
    }

    /// The one table assembler: distances over `spec.graph` minus the cables
    /// `mask` takes out, minimal ports over the pristine neighbor CSR
    /// with failed directed links masked out. Pairs the mask disconnects
    /// keep [`RouteTable::UNREACHABLE`] distance and an empty port set.
    ///
    /// Every policy is the same port rule over two distance arenas: a
    /// neighbor across a *local* link is judged on `near` (the routed
    /// distance `dist` stores), one across a *global* link on `far`.
    /// [`RoutingPolicy::HierarchicalMinimal`] — minimal paths with at
    /// most one inter-group link, BookSim's built-in Dragonfly/Megafly
    /// MIN discipline — sets `near` to the ≤1-global distance and `far`
    /// to the pure-local one (a temporary arena), so a global port is
    /// minimal only if the remainder from its far end is purely local
    /// and no path ever takes two globals. [`RoutingPolicy::FlatMinimal`]
    /// has one arena and no link classes.
    ///
    /// **Distances** go straight into the `u16` arenas, fanned out over
    /// rayon: flat tables by [`masked_distance_block`], 64 destinations
    /// per graph sweep; hierarchical ones by one `local_bfs` /
    /// `one_global_bfs` per destination row.
    ///
    /// **Ports** lean on the distance relation being undirected (a mask
    /// takes both slots of a cable out of it, and a ≤1-global path
    /// reverses to one), so row `x` of an arena is also "from `x` to
    /// every destination". The fill for router `r` streams `dst` over
    /// `r`'s own row and the judged rows of its live ports — a few
    /// dozen cache-resident rows — writing every candidate port and
    /// advancing by the match, in (r, dst, ascending port) order.
    fn assemble(
        (nbr_offsets, nbrs): (Vec<u32>, Vec<u32>),
        spec: &NetworkSpec,
        mask: FaultMask,
    ) -> Self {
        let graph = &spec.graph;
        let n = nbr_offsets.len() - 1;
        assert_eq!(graph.n(), n);
        // The link classes of the port rule; flat tables have none.
        let group: &[u32] = match spec.routing_policy() {
            RoutingPolicy::FlatMinimal => &[],
            RoutingPolicy::HierarchicalMinimal => {
                assert_eq!(
                    spec.group.len(),
                    n,
                    "hierarchical routing needs a group per router"
                );
                &spec.group
            }
        };
        // The sweeps run over the caller's graph and skip the slots
        // the mask takes out: no degraded copy is built.
        let mut dist = vec![0u16; n * n];
        let mut far = Vec::new();
        if group.is_empty() {
            dist.par_chunks_mut(64 * n)
                .enumerate()
                .for_each(|(block, rows)| {
                    masked_distance_block(graph, &mask, (block * 64) as u32, rows)
                });
        } else {
            far.resize(n * n, 0u16);
            far.par_chunks_mut(n)
                .enumerate()
                .for_each(|(dst, d0)| local_bfs(graph, &mask, group, dst as u32, d0));
            dist.par_chunks_mut(n).enumerate().for_each(|(dst, d1)| {
                one_global_bfs(graph, &mask, group, &far[dst * n..][..n], d1)
            });
        }
        debug_assert!(
            is_symmetric(&dist, n) && (far.is_empty() || is_symmetric(&far, n)),
            "the port fill reads arena rows as columns: distances must be undirected"
        );
        let mut port_offsets = Vec::with_capacity(n * n + 1);
        // Every reachable ordered pair contributes at least one minimal
        // port, so n·(n−1) is a lower bound on the arena size.
        let mut ports = Vec::with_capacity(n * n.saturating_sub(1));
        port_offsets.push(0u32);
        // Surviving (port, judged row of its neighbor) of one router.
        let mut live: Vec<(u8, &[u16])> = Vec::new();
        // The distance a minimal next hop of that router has per `dst`.
        let mut want = vec![0u16; n];
        for r in 0..n {
            let row = &nbrs[nbr_offsets[r] as usize..nbr_offsets[r + 1] as usize];
            live.clear();
            live.extend(row.iter().enumerate().filter_map(|(p, &nb)| {
                let global = !group.is_empty() && group[r] != group[nb as usize];
                let judged = if global { &far } else { &dist };
                (!mask.link_dead(nbr_offsets[r] + p as u32))
                    .then(|| (p as u8, &judged[nb as usize * n..][..n]))
            }));
            // One below the router's own distance; an unreachable `dst`
            // lands on NO_HOP by itself, `r` is put there.
            for (w, &d) in want.iter_mut().zip(&dist[r * n..][..n]) {
                *w = d.wrapping_sub(1);
            }
            want[r] = NO_HOP;
            let mut len = ports.len();
            ports.resize(len + n * live.len(), 0);
            for (dst, &w) in want.iter().enumerate() {
                for &(p, judged) in &live {
                    ports[len] = p;
                    len += usize::from(judged[dst] == w);
                }
                port_offsets.push(len as u32);
            }
            ports.truncate(len);
            assert!(len <= u32::MAX as usize, "port arena overflows u32 offsets");
        }
        RouteTable {
            n,
            dist,
            port_offsets,
            ports,
            nbr_offsets,
            nbrs,
            mask,
        }
    }

    /// Number of routers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Hop distance from `r` to `dst`.
    #[inline]
    pub fn distance(&self, r: u32, dst: u32) -> u16 {
        self.dist[dst as usize * self.n + r as usize]
    }

    /// Whether any surviving path connects `r` to `dst` (true for
    /// `r == dst`).
    #[inline]
    pub fn is_reachable(&self, r: u32, dst: u32) -> bool {
        self.distance(r, dst) != Self::UNREACHABLE
    }

    /// Minimal output ports at router `r` toward `dst` (empty iff r == dst
    /// or dst unreachable).
    #[inline]
    pub fn min_ports(&self, r: u32, dst: u32) -> &[u8] {
        let idx = r as usize * self.n + dst as usize;
        let (s, e) = (
            self.port_offsets[idx] as usize,
            self.port_offsets[idx + 1] as usize,
        );
        &self.ports[s..e]
    }

    /// The neighbor reached through `port` of router `r`.
    #[inline]
    pub fn neighbor(&self, r: u32, port: u8) -> u32 {
        self.nbrs[self.nbr_offsets[r as usize] as usize + port as usize]
    }

    /// The neighbor behind the first minimal port of `r` toward `dst`.
    #[inline]
    fn first_hop(&self, r: u32, dst: u32) -> Option<u32> {
        let &port = self.min_ports(r, dst).first()?;
        Some(self.neighbor(r, port))
    }

    /// All neighbors of router `r`, in port order.
    #[inline]
    pub fn neighbors(&self, r: u32) -> &[u32] {
        let r = r as usize;
        &self.nbrs[self.nbr_offsets[r] as usize..self.nbr_offsets[r + 1] as usize]
    }

    /// Degree of router `r`.
    #[inline]
    pub fn degree(&self, r: u32) -> usize {
        (self.nbr_offsets[r as usize + 1] - self.nbr_offsets[r as usize]) as usize
    }

    /// Directed links of the neighbor CSR — with [`RouteTable::n`], the
    /// shape a table and the network it routes must share.
    pub fn num_links(&self) -> usize {
        self.nbrs.len()
    }

    /// The compiled fault epoch this table was assembled under (bitless
    /// when pristine). A fault set that compiles to an equal mask is
    /// served by this very table: [`RouteTable::remask`] hands back a
    /// copy, and holders of a shared table (the serving oracle's `Arc`,
    /// the engine's borrowed epoch 0) keep sharing it.
    pub fn mask(&self) -> &FaultMask {
        &self.mask
    }

    /// Total table entries (for the paper's storage comparison).
    pub fn storage_entries(&self) -> usize {
        self.ports.len()
    }

    /// Bytes held by the table's flat arenas and its fault mask (none
    /// when pristine); capacity overshoot and the struct header
    /// excluded. Lets sweeps budget per-config routing state up front.
    pub fn memory_bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<u16>()
            + self.port_offsets.len() * std::mem::size_of::<u32>()
            + self.ports.len() * std::mem::size_of::<u8>()
            + self.nbr_offsets.len() * std::mem::size_of::<u32>()
            + self.nbrs.len() * std::mem::size_of::<u32>()
            + self.mask.memory_bytes()
    }
}

impl PathOracle for RouteTable {
    fn num_routers(&self) -> usize {
        self.n
    }

    /// Typed-error variant of the inherent [`RouteTable::distance`]: the
    /// [`RouteTable::UNREACHABLE`] sentinel surfaces as
    /// [`RouteError::Unreachable`] instead of an in-band `u16::MAX`.
    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        let n = self.n as u32;
        for id in [src, dst] {
            if id >= n {
                return Err(RouteError::OutOfRange { id, routers: n });
            }
        }
        match RouteTable::distance(self, src, dst) {
            Self::UNREACHABLE => Err(RouteError::Unreachable { src, dst }),
            d => Ok(u32::from(d)),
        }
    }

    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
        PathOracle::distance(self, src, dst)?;
        for &p in self.min_ports(src, dst) {
            out.push(self.neighbor(src, p));
        }
        Ok(())
    }

    // The three walks below answer as the provided methods do (same
    // next-hop order, same typed errors), reading `min_ports` slices in
    // place instead of copying every router's next hops into a fresh
    // `Vec`.

    fn next_hop(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        PathOracle::distance(self, src, dst)?;
        if src == dst {
            return Ok(dst);
        }
        self.first_hop(src, dst)
            .ok_or(RouteError::Unreachable { src, dst })
    }

    fn path(&self, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
        let hops = PathOracle::distance(self, src, dst)? as usize;
        let mut path = Vec::with_capacity(hops + 1);
        path.push(src);
        let mut cur = src;
        while cur != dst {
            cur = self
                .first_hop(cur, dst)
                .ok_or(RouteError::Unreachable { src, dst })?;
            path.push(cur);
        }
        Ok(path)
    }

    fn k_paths(&self, src: u32, dst: u32, k: usize) -> Result<Vec<Vec<u32>>, RouteError> {
        let hops = PathOracle::distance(self, src, dst)? as usize;
        if k == 0 {
            return Ok(Vec::new());
        }
        if src == dst {
            return Ok(vec![vec![src]]);
        }
        // Depth-first over the minimal-path DAG in port order: the stack
        // is the current prefix, each router with the index of the
        // minimal port it tries next.
        let mut out = Vec::new();
        let mut stack: Vec<(u32, usize)> = Vec::with_capacity(hops);
        stack.push((src, 0));
        while let Some((r, tried)) = stack.last_mut() {
            let Some(&port) = self.min_ports(*r, dst).get(*tried) else {
                stack.pop();
                continue;
            };
            *tried += 1;
            let next = self.neighbor(*r, port);
            if next != dst {
                stack.push((next, 0));
                continue;
            }
            out.push(stack.iter().map(|&(r, _)| r).chain([dst]).collect());
            if out.len() == k {
                break;
            }
        }
        Ok(out)
    }
}

/// BFS to `dst` using only live intra-group edges, into `d0`
/// (UNREACHABLE-valued outside dst's group).
fn local_bfs(g: &Graph, mask: &FaultMask, group: &[u32], dst: u32, d0: &mut [u16]) {
    d0.fill(RouteTable::UNREACHABLE);
    let mut queue = std::collections::VecDeque::new();
    d0[dst as usize] = 0;
    queue.push_back(dst);
    while let Some(u) = queue.pop_front() {
        for (e, &v) in g.edge_range(u).zip(g.neighbors(u)) {
            let fresh =
                group[v as usize] == group[u as usize] && d0[v as usize] == RouteTable::UNREACHABLE;
            if fresh && !mask.edge_dead(e) {
                d0[v as usize] = d0[u as usize] + 1;
                queue.push_back(v);
            }
        }
    }
}

/// Shortest distance to `dst` over live paths with at most one
/// inter-group edge, into `d1`, given the pure-local distances `d0`
/// toward `dst`.
///
/// A ≤1-global path from `v` is a local prefix to some router `w`, an
/// optional global hop `w → s`, then a pure-local suffix `s → dst`. So
/// `d1 = min(d0, local-Dijkstra from seeds seed[w] = min over global
/// edges (w, s) of d0[s] + 1)` — a bucketed multi-source Dijkstra over
/// local edges only.
fn one_global_bfs(g: &Graph, mask: &FaultMask, group: &[u32], d0: &[u16], d1: &mut [u16]) {
    d1.copy_from_slice(d0);
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); 8];
    let push = |buckets: &mut Vec<Vec<u32>>, d: u16, v: u32| {
        let d = d as usize;
        if buckets.len() <= d {
            buckets.resize(d + 1, Vec::new());
        }
        buckets[d].push(v);
    };
    // Seeds: crossing a global edge (w, s) costs d0[s] + 1 at w, plus
    // the pure-local distances themselves.
    for w in 0..g.n() as u32 {
        for (e, &s) in g.edge_range(w).zip(g.neighbors(w)) {
            let global = group[s as usize] != group[w as usize];
            if global && d0[s as usize] != RouteTable::UNREACHABLE && !mask.edge_dead(e) {
                let cand = d0[s as usize] + 1;
                if cand < d1[w as usize] {
                    d1[w as usize] = cand;
                }
            }
        }
    }
    for (r, &d) in d1.iter().enumerate() {
        if d != RouteTable::UNREACHABLE {
            push(&mut buckets, d, r as u32);
        }
    }
    let mut d = 0usize;
    while d < buckets.len() {
        let mut i = 0;
        while i < buckets[d].len() {
            let u = buckets[d][i];
            i += 1;
            if d1[u as usize] as usize != d {
                continue; // stale entry
            }
            for (e, &v) in g.edge_range(u).zip(g.neighbors(u)) {
                if group[v as usize] != group[u as usize] || mask.edge_dead(e) {
                    continue; // only live local propagation
                }
                let nd = d as u16 + 1;
                if nd < d1[v as usize] {
                    d1[v as usize] = nd;
                    push(&mut buckets, nd, v);
                }
            }
        }
        d += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;

    /// The flat table of a bare graph under `faults`.
    fn masked(g: &Graph, faults: &FaultSet) -> RouteTable {
        RouteTable::for_spec(&NetworkSpec::uniform("g", g.clone(), 1).with_faults(faults.clone()))
    }

    /// The flat table of a pristine bare graph.
    fn flat(g: &Graph) -> RouteTable {
        masked(g, &FaultSet::empty())
    }

    #[test]
    fn table_on_cycle() {
        let g = Graph::cycle(6);
        let t = flat(&g);
        assert_eq!(t.distance(0, 3), 3);
        assert_eq!(t.distance(0, 1), 1);
        // Opposite vertex: both directions are minimal.
        assert_eq!(t.min_ports(0, 3).len(), 2);
        // Adjacent: single minimal port.
        let ports = t.min_ports(0, 1);
        assert_eq!(ports.len(), 1);
        assert_eq!(t.neighbor(0, ports[0]), 1);
        assert!(t.min_ports(2, 2).is_empty());
    }

    #[test]
    fn minimal_ports_reduce_distance() {
        let g = polarstar_graph::random::random_regular(40, 4, 3).unwrap();
        let t = flat(&g);
        for r in 0..40u32 {
            for dst in 0..40u32 {
                if r == dst {
                    continue;
                }
                let d = t.distance(r, dst);
                assert!(!t.min_ports(r, dst).is_empty(), "{r}->{dst}");
                for &p in t.min_ports(r, dst) {
                    let nb = t.neighbor(r, p);
                    assert_eq!(t.distance(nb, dst), d - 1);
                }
            }
        }
    }

    #[test]
    fn complete_graph_all_single_hop() {
        let g = Graph::complete(5);
        let t = flat(&g);
        for r in 0..5u32 {
            for dst in 0..5u32 {
                if r != dst {
                    assert_eq!(t.distance(r, dst), 1);
                    assert_eq!(t.min_ports(r, dst).len(), 1);
                }
            }
        }
    }

    #[test]
    fn hierarchical_dragonfly_distances() {
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        let t = RouteTable::for_spec(&df);
        let free = flat(&df.graph);
        for r in 0..df.graph.n() as u32 {
            for dst in 0..df.graph.n() as u32 {
                // Hierarchical distance dominates unconstrained distance
                // and stays ≤ 3 (local, global, local).
                assert!(t.distance(r, dst) >= free.distance(r, dst));
                assert!(t.distance(r, dst) <= 3, "{r}→{dst}");
            }
        }
    }

    #[test]
    fn hierarchical_paths_use_at_most_one_global() {
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        let t = RouteTable::for_spec(&df);
        // Walk every (src, dst) pair greedily along every minimal-port
        // choice at the first hop and the deterministic one after,
        // counting global hops.
        for src in 0..df.graph.n() as u32 {
            for dst in 0..df.graph.n() as u32 {
                if src == dst {
                    continue;
                }
                for &p0 in t.min_ports(src, dst) {
                    let mut cur = t.neighbor(src, p0);
                    let mut globals = usize::from(df.group[src as usize] != df.group[cur as usize]);
                    let mut hops = 1;
                    while cur != dst {
                        let ports = t.min_ports(cur, dst);
                        assert!(!ports.is_empty(), "stuck at {cur} toward {dst}");
                        let next = t.neighbor(cur, ports[0]);
                        globals += usize::from(df.group[cur as usize] != df.group[next as usize]);
                        cur = next;
                        hops += 1;
                        assert!(hops <= 4, "loop {src}→{dst}");
                    }
                    assert!(globals <= 1, "{src}→{dst} used {globals} globals");
                }
            }
        }
    }

    #[test]
    fn hierarchical_megafly_reaches_leaves() {
        let mf = polarstar_topo::megafly::megafly(polarstar_topo::megafly::MegaflyParams {
            rho: 2,
            a: 4,
            p: 1,
        });
        let t = RouteTable::for_spec(&mf);
        let leaves = mf.endpoint_routers();
        for &a in &leaves {
            for &b in &leaves {
                if a != b {
                    assert!(t.distance(a, b) <= 3, "{a}→{b}: {}", t.distance(a, b));
                    assert!(!t.min_ports(a, b).is_empty());
                }
            }
        }
    }

    #[test]
    fn memory_bytes_matches_component_sum_on_table3_config() {
        // Table 3's PS-IQ entry: radix-15 PolarStar with p = 5 (1064
        // routers). memory_bytes must equal the exact sum of the flat
        // arena sizes so sweep planners can trust it as a budget.
        let cfg = polarstar::design::best_config(15).unwrap();
        let net = polarstar::network::PolarStarNetwork::build(cfg, 5)
            .unwrap()
            .spec;
        let n = net.graph.n();
        assert_eq!(n, 1064);
        let t = RouteTable::for_spec(&net);
        let sum_deg: usize = (0..n as u32).map(|r| net.graph.degree(r)).sum();
        let expect = n * n * 2            // dist: u16 per (r, dst)
            + (n * n + 1) * 4             // port_offsets: u32
            + t.storage_entries()         // ports: u8
            + (n + 1) * 4                 // nbr_offsets: u32
            + sum_deg * 4; // nbrs: u32
        assert_eq!(t.memory_bytes(), expect);
        // Sanity: the whole routing state for a 1064-router Table-3
        // config stays well under 16 MiB.
        assert!(t.memory_bytes() < 16 << 20, "{} bytes", t.memory_bytes());
    }

    #[test]
    fn neighbors_slice_matches_graph_adjacency() {
        let g = polarstar_graph::random::random_regular(30, 5, 7).unwrap();
        let t = flat(&g);
        for r in 0..30u32 {
            assert_eq!(t.neighbors(r), g.neighbors(r));
            assert_eq!(t.degree(r), g.degree(r));
            for p in 0..g.degree(r) {
                assert_eq!(t.neighbor(r, p as u8), g.neighbors(r)[p]);
            }
        }
    }

    #[test]
    fn masked_table_routes_around_failed_link() {
        use polarstar_topo::FaultSet;
        // Cycle of 6: kill edge (0, 1). Every pair stays connected the
        // long way round, but distances grow and the failed directed
        // link never appears as a minimal port.
        let g = Graph::cycle(6);
        let f = FaultSet::from_links([(0, 1)]);
        let t = masked(&g, &f);
        assert_eq!(t.distance(0, 1), 5);
        assert!(t.is_reachable(0, 1));
        for &p in t.min_ports(0, 1) {
            assert_ne!(t.neighbor(0, p), 1, "failed link offered as port");
        }
        // Pristine port numbering is preserved.
        assert_eq!(t.neighbors(0), g.neighbors(0));
    }

    #[test]
    fn masked_table_marks_disconnected_pairs_unreachable() {
        use polarstar_topo::FaultSet;
        // Path 0-1-2-3: cutting (1, 2) splits the graph in two.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = FaultSet::from_links([(1, 2)]);
        let t = masked(&g, &f);
        assert_eq!(t.distance(0, 3), RouteTable::UNREACHABLE);
        assert!(!t.is_reachable(0, 3));
        assert!(t.min_ports(0, 3).is_empty());
        assert!(t.min_ports(1, 2).is_empty());
        // Within each side routing still works.
        assert!(t.is_reachable(0, 1));
        assert_eq!(t.min_ports(2, 3).len(), 1);
    }

    #[test]
    fn masked_table_isolates_failed_router() {
        use polarstar_topo::FaultSet;
        let g = Graph::complete(5);
        let f = FaultSet::from_routers([2]);
        let t = masked(&g, &f);
        for r in 0..5u32 {
            if r != 2 {
                assert!(!t.is_reachable(r, 2), "{r}→2");
                assert!(t.min_ports(r, 2).is_empty());
                // No surviving pair routes through the dead router.
                for dst in 0..5u32 {
                    for &p in t.min_ports(r, dst) {
                        assert_ne!(t.neighbor(r, p), 2);
                    }
                }
            }
        }
    }

    #[test]
    fn masked_hierarchical_avoids_failed_global_link() {
        use polarstar_topo::FaultSet;
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        // Fail one global edge and rebuild. Under the ≤1-global
        // discipline, pairs whose groups were joined only by that edge
        // become UNREACHABLE (a flat table would still route them via
        // two globals); every surviving pair keeps nonempty port sets
        // that never traverse the dead directed link.
        let (u, v) = df
            .graph
            .edges()
            .find(|&(u, v)| df.group[u as usize] != df.group[v as usize])
            .unwrap();
        let f = FaultSet::from_links([(u, v)]);
        let t = RouteTable::for_spec(&df.clone().with_faults(f));
        let mut lost = 0usize;
        for src in 0..df.graph.n() as u32 {
            for dst in 0..df.graph.n() as u32 {
                if src == dst {
                    continue;
                }
                if t.is_reachable(src, dst) {
                    assert!(!t.min_ports(src, dst).is_empty(), "{src}→{dst}");
                    for &p in t.min_ports(src, dst) {
                        let nb = t.neighbor(src, p);
                        assert!(!((src == u && nb == v) || (src == v && nb == u)));
                    }
                } else {
                    assert!(t.min_ports(src, dst).is_empty(), "{src}→{dst}");
                    lost += 1;
                }
            }
        }
        // The dead edge's own endpoints must be among the lost pairs,
        // but most pairs survive (other groups keep their globals).
        assert!(lost > 0);
        assert!(!t.is_reachable(u, v));
        assert!(lost < df.graph.n() * (df.graph.n() - 1) / 2, "{lost}");
    }

    #[test]
    fn for_spec_honors_fault_mask() {
        use polarstar_topo::FaultSet;
        let spec = polarstar_topo::NetworkSpec::uniform("ring8", Graph::cycle(8), 1)
            .with_faults(FaultSet::from_links([(0, 1)]));
        let t = RouteTable::for_spec(&spec);
        assert_eq!(t.distance(0, 1), 7);
    }

    /// Pointwise table equality (RouteTable deliberately has no PartialEq:
    /// production code should never compare whole tables).
    fn assert_tables_equal(a: &RouteTable, b: &RouteTable) {
        assert_eq!(a.n(), b.n());
        for r in 0..a.n() as u32 {
            assert_eq!(a.neighbors(r), b.neighbors(r), "CSR row {r}");
            for dst in 0..a.n() as u32 {
                assert_eq!(a.distance(r, dst), b.distance(r, dst), "{r}→{dst}");
                assert_eq!(a.min_ports(r, dst), b.min_ports(r, dst), "{r}→{dst}");
            }
        }
    }

    #[test]
    fn remask_matches_fresh_masked_build() {
        use polarstar_topo::FaultSet;
        let g = polarstar_graph::random::random_regular(24, 4, 11).unwrap();
        let spec = polarstar_topo::NetworkSpec::uniform("rr24", g.clone(), 1);
        let pristine = RouteTable::for_spec(&spec);
        let f = FaultSet::random_links(&g, 0.1, 5);
        assert_tables_equal(&pristine.remask(&spec, &f), &masked(&g, &f));
        // Remasking back to the empty set restores the pristine table.
        assert_tables_equal(&pristine.remask(&spec, &FaultSet::empty()), &pristine);
    }

    #[test]
    fn remask_to_the_same_mask_is_the_same_table() {
        use polarstar_topo::FaultSet;
        let g = polarstar_graph::random::random_regular(24, 4, 11).unwrap();
        let f = FaultSet::random_links(&g, 0.1, 5);
        let spec =
            polarstar_topo::NetworkSpec::uniform("rr24", g.clone(), 1).with_faults(f.clone());
        let masked = RouteTable::for_spec(&spec);
        assert_eq!(*masked.mask(), f.compile(&g));
        // The mask is part of the table's resident state.
        let pristine = flat(&g);
        assert_eq!(*pristine.mask(), FaultMask::default());
        let arenas = |t: &RouteTable| t.memory_bytes() - t.storage_entries();
        assert_eq!(
            arenas(&masked),
            arenas(&pristine) + masked.mask().memory_bytes()
        );
        assert!(masked.mask().memory_bytes() > 0);
        // The same set again, and the same set plus entries that are no
        // link or router of this graph, compile to the table's own mask.
        let stray = f.union(&FaultSet::from_links([(0, 24), (40, 41)]));
        for same in [&f, &stray] {
            let again = masked.remask(&spec, same);
            assert_eq!(again.mask(), masked.mask());
            assert_tables_equal(&again, &masked);
        }
    }

    #[test]
    #[should_panic(expected = "spec does not match this table (routers, directed links)")]
    fn remask_rejects_a_spec_of_equal_size_and_other_links() {
        use polarstar_topo::FaultSet;
        let table = flat(&Graph::complete(8));
        let other = Graph::complete(8).without_edges(&[(0, 1)]);
        let other = polarstar_topo::NetworkSpec::uniform("other", other, 2);
        let _ = table.remask(&other, &FaultSet::empty());
    }

    #[test]
    #[should_panic(expected = "distances are stored as u16")]
    fn for_spec_rejects_a_graph_whose_distances_could_reach_the_sentinel() {
        let _ = flat(&Graph::empty(u16::MAX as usize));
    }

    /// Brute-force reference for the hierarchical discipline, sharing
    /// nothing with `local_bfs`/`one_global_bfs`/`assemble`: a forward
    /// BFS from `src` over (router, global links used) states of the
    /// degraded graph, allowing at most `budget` global links. Returns
    /// the distance from `src` to every router.
    fn ref_distances(g: &Graph, group: &[u32], src: u32, budget: usize) -> Vec<u32> {
        let n = g.n();
        let mut dist = vec![[u32::MAX; 2]; n];
        let mut queue = std::collections::VecDeque::from([(src, 0usize)]);
        dist[src as usize][0] = 0;
        while let Some((u, used)) = queue.pop_front() {
            for &v in g.neighbors(u) {
                let used_v = used + usize::from(group[u as usize] != group[v as usize]);
                if used_v <= budget && dist[v as usize][used_v] == u32::MAX {
                    dist[v as usize][used_v] = dist[u as usize][used] + 1;
                    queue.push_back((v, used_v));
                }
            }
        }
        dist.iter().map(|d| d[0].min(d[1])).collect()
    }

    /// Check every (router, destination) entry of a hierarchical table
    /// against [`ref_distances`]: the distance is the ≤ 1-global one, a
    /// port is minimal iff its directed link survives and the remainder
    /// from its far end fits the global budget left, and disconnected
    /// pairs read `UNREACHABLE` with no ports.
    fn assert_matches_hierarchical_reference(
        t: &RouteTable,
        spec: &NetworkSpec,
        faults: &polarstar_topo::FaultSet,
        what: &str,
    ) {
        let degraded = faults.degraded_graph(&spec.graph);
        let n = spec.graph.n() as u32;
        // from[budget][x][dst]
        let from: Vec<Vec<Vec<u32>>> = (0..2)
            .map(|b| {
                (0..n)
                    .map(|x| ref_distances(&degraded, &spec.group, x, b))
                    .collect()
            })
            .collect();
        for r in 0..n {
            assert_eq!(
                t.neighbors(r),
                spec.graph.neighbors(r),
                "{what}: CSR row {r}"
            );
            for dst in 0..n {
                let d = from[1][r as usize][dst as usize];
                let want = if d == u32::MAX {
                    RouteTable::UNREACHABLE
                } else {
                    d as u16
                };
                assert_eq!(t.distance(r, dst), want, "{what}: distance {r}→{dst}");
                let mut ports = Vec::new();
                if r != dst && d != u32::MAX {
                    for (p, &nb) in spec.graph.neighbors(r).iter().enumerate() {
                        let global = spec.group[r as usize] != spec.group[nb as usize];
                        let rest = from[usize::from(!global)][nb as usize][dst as usize];
                        if !faults.link_failed(r, nb) && rest != u32::MAX && rest + 1 == d {
                            ports.push(p as u8);
                        }
                    }
                }
                assert_eq!(t.min_ports(r, dst), ports, "{what}: ports {r}→{dst}");
            }
        }
    }

    #[test]
    fn hierarchical_tables_match_brute_force_reference() {
        use polarstar_topo::FaultSet;
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        let mf = polarstar_topo::megafly::megafly(polarstar_topo::megafly::MegaflyParams {
            rho: 2,
            a: 4,
            p: 1,
        });
        for spec in [df, mf] {
            assert_eq!(spec.routing_policy(), RoutingPolicy::HierarchicalMinimal);
            let global = spec
                .graph
                .edges()
                .find(|&(u, v)| spec.group[u as usize] != spec.group[v as usize])
                .unwrap();
            let masks = [
                ("pristine", FaultSet::empty()),
                ("one global link", FaultSet::from_links([global])),
                ("10% links", FaultSet::random_links(&spec.graph, 0.1, 5)),
                ("one-way link", FaultSet::from_directed_links([global])),
                ("two routers", FaultSet::from_routers([1, global.1])),
            ];
            let pristine = RouteTable::for_spec(&spec);
            for (label, f) in &masks {
                let what = format!("{} / {label}", spec.name);
                let fresh = RouteTable::for_spec(&spec.clone().with_faults(f.clone()));
                assert_matches_hierarchical_reference(&fresh, &spec, f, &what);
                let remasked = pristine.remask(&spec, f);
                assert_matches_hierarchical_reference(
                    &remasked,
                    &spec,
                    f,
                    &format!("{what} (remask)"),
                );
                // Chained remasks start from the retained pristine CSR,
                // not from the previous mask.
                assert_matches_hierarchical_reference(
                    &remasked.remask(&spec, &FaultSet::empty()),
                    &spec,
                    &FaultSet::empty(),
                    &format!("{what} (remask back to ∅)"),
                );
            }
            assert_tables_equal(&pristine.remask(&spec, &FaultSet::empty()), &pristine);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        /// The invariant the port fill leans on — it reads arena row
        /// `x` as "from `x` to every destination" — under the faults
        /// that could break it: one-way links and dead routers. A
        /// debug build also asserts it on the private `far` arena. The
        /// flat table must then agree with the column form of the same
        /// relation, `masked_distance_column` + `column_next_hops`.
        #[test]
        fn distances_stay_symmetric_under_one_way_and_router_faults(
            n in 2usize..48,
            density in 1usize..6,
            groups in 1usize..6,
            seed in 0u64..10_000,
        ) {
            use polarstar_topo::oracle::{column_next_hops, masked_distance_column};
            let g = polarstar_graph::random::gnm(n, (n * density / 2).min(n * (n - 1) / 2), seed);
            let group: Vec<u32> = (0..n).map(|r| (r % groups) as u32).collect();
            let one_way = g.edges().filter(|&(u, v)| (u ^ v ^ seed as u32).is_multiple_of(4));
            let faults = FaultSet::from_directed_links(one_way.map(|(u, v)| (v, u)))
                .union(&FaultSet::random_links(&g, 0.05, seed))
                .union(&FaultSet::random_routers(&g, 0.05, seed ^ 0xD1E));
            let flat = masked(&g, &faults);
            let hier = RouteTable::for_spec(
                &NetworkSpec::new("g", g.clone(), vec![1; n], group)
                    .with_policy(RoutingPolicy::HierarchicalMinimal)
                    .with_faults(faults.clone()),
            );
            let mask = faults.compile(&g);
            let mut col = Vec::new();
            for a in 0..n as u32 {
                masked_distance_column(&g, &mask, a, &mut col);
                for b in 0..n as u32 {
                    proptest::prop_assert_eq!(flat.distance(a, b), flat.distance(b, a), "flat {}–{}", a, b);
                    proptest::prop_assert_eq!(hier.distance(a, b), hier.distance(b, a), "hier {}–{}", a, b);
                    let base = g.edge_range(b).start;
                    let ports: Vec<u8> = column_next_hops(&g, &col, b, &mask).map(|(e, _)| (e - base) as u8).collect();
                    proptest::prop_assert_eq!(flat.min_ports(b, a), &ports[..], "ports {}→{}", b, a);
                }
            }
        }
    }

    #[test]
    fn oracle_errors_distinguish_unreachable_from_degree_zero() {
        use polarstar_topo::oracle::{PathOracle, RouteError};
        use polarstar_topo::FaultSet;
        // Path 0-1-2-3 with (1, 2) cut: min_ports(0, 3) and min_ports(3, 3)
        // are both empty slices — the silent fallback this trait fixes.
        // The oracle surface tells them apart with a typed error.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = FaultSet::from_links([(1, 2)]);
        let t = masked(&g, &f);
        assert!(t.min_ports(0, 3).is_empty());
        assert!(t.min_ports(3, 3).is_empty());
        assert_eq!(
            PathOracle::distance(&t, 0, 3),
            Err(RouteError::Unreachable { src: 0, dst: 3 })
        );
        assert_eq!(
            t.next_hop(0, 3),
            Err(RouteError::Unreachable { src: 0, dst: 3 })
        );
        assert_eq!(
            t.k_paths(0, 3, 2),
            Err(RouteError::Unreachable { src: 0, dst: 3 })
        );
        // The self-pair stays a healthy answer, not an error.
        assert_eq!(PathOracle::distance(&t, 3, 3), Ok(0));
        assert_eq!(t.next_hop(3, 3), Ok(3));
        // Out-of-range ids are their own typed error.
        assert_eq!(
            PathOracle::distance(&t, 0, 9),
            Err(RouteError::OutOfRange { id: 9, routers: 4 })
        );
    }

    #[test]
    fn oracle_walks_match_table_lookups() {
        use polarstar_topo::oracle::PathOracle;
        let g = polarstar_graph::random::random_regular(30, 4, 3).unwrap();
        let t = flat(&g);
        for src in 0..30u32 {
            for dst in 0..30u32 {
                let d = PathOracle::distance(&t, src, dst).unwrap();
                assert_eq!(d as u16, RouteTable::distance(&t, src, dst));
                let p = t.path(src, dst).unwrap();
                assert_eq!(p.len() as u32, d + 1);
                assert_eq!((p[0], *p.last().unwrap()), (src, dst));
                // Every enumerated alternative is a distinct minimal path.
                let alts = t.k_paths(src, dst, 4).unwrap();
                assert!(!alts.is_empty());
                for (i, a) in alts.iter().enumerate() {
                    assert_eq!(a.len() as u32, d + 1, "{src}→{dst}");
                    for w in a.windows(2) {
                        assert!(g.has_edge(w[0], w[1]), "{src}→{dst} hop {w:?}");
                    }
                    for b in &alts[..i] {
                        assert_ne!(a, b, "{src}→{dst} duplicate path");
                    }
                }
            }
        }
    }

    #[test]
    fn storage_scales_with_path_diversity() {
        // HyperX-like graphs have more minimal ports than a cycle.
        let hx = polarstar_topo::hyperx::hyperx(&[4, 4], 1);
        let t = RouteTable::for_spec(&hx);
        // For routers differing in both coordinates there are 2 minimal
        // first hops.
        assert!(t.storage_entries() > 16 * 15);
    }
}
