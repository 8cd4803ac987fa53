//! Routing state: minimal next-hop tables and the §9.3 routing schemes.
//!
//! A [`RouteTable`] stores, for every (router, destination-router) pair,
//! the hop distance, and reads the output ports lying on minimal paths
//! off the destination's distance column on demand — the "all minpaths"
//! answers the paper attributes to SF/BF tables (and that HyperX computes
//! by coordinate alignment), from `2·n²` bytes and no port arena. A read
//! scans the router's neighbors once, or probes one slot when the router
//! is next to the destination; a path walk resumes each router's scan
//! where its last child left it. [`RoutingKind`] selects how the table
//! is used:
//!
//! * `MinSingle` — one deterministic minimal path per pair;
//! * `MinMulti` — a uniformly random minimal port at each hop;
//! * `Ugal` — UGAL-L (§9.3): at the source, compare the minimal path
//!   against 4 random Valiant intermediates using local output-queue
//!   occupancy × remaining hops, then route minimally per phase.

use polarstar_graph::Graph;
use polarstar_topo::fault::{FaultMask, FaultSet};
use polarstar_topo::network::{NetworkSpec, RoutingPolicy};
use polarstar_topo::oracle::{
    column_next_hops_from, masked_distance_block, PathOracle, RouteError,
};
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

/// Per-destination distance table; minimal ports are derived on read.
///
/// The table is its `n × n` distance arena, laid out so that destination
/// `dst`'s column `dist[dst·n..][..n]` is contiguous, beside the pristine
/// router graph and the fault mask it was assembled under.
/// [`RouteTable::min_ports`] applies the one masked port rule
/// ([`column_next_hops_from`]) to that column on every read: no port is
/// stored. A router at distance 1 reads one slot, the link to the
/// destination, since no other neighbor can be minimal; the `k_paths`
/// walk resumes each router's scan after the child it took instead of
/// rescanning it for every child.
#[derive(Clone)]
pub struct RouteTable {
    /// The pristine router graph: port `p` of router `r` is CSR slot
    /// `edge_range(r).start + p`, the slot the mask is indexed by.
    graph: Graph,
    /// dist[dst * n + r] = hop distance from router r to dst.
    dist: Vec<u16>,
    /// Hierarchical tables only (both empty when flat): every router's
    /// group, and the pure-local distances, laid out like `dist`, that a
    /// port crossing groups is judged on.
    group: Vec<u32>,
    far: Vec<u16>,
    /// The compiled fault epoch the table was assembled under (bitless
    /// when pristine).
    mask: FaultMask,
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
    /// sets, while the table's graph keeps the *pristine* port numbering
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
        Self::assemble(graph.clone(), spec, spec.faults().compile(graph))
    }

    /// The table for a new cumulative fault set over this table's
    /// pristine graph — and with it the port numbering the engine's
    /// flattened state is indexed by.
    ///
    /// This is the route-table *epoch* path of live fault schedules. A
    /// set that compiles to the mask this table was assembled under
    /// (a recovery back to it, faults naming no link of the graph) is
    /// this table again and costs one copy; any other reruns the
    /// assembler's distance sweep — a few milliseconds at 1 064
    /// routers — over the cloned graph, so port indices stay valid
    /// across the switch. Holders of a shared table compare
    /// [`RouteTable::mask`] themselves and skip even the copy. The
    /// policy and group structure come from `spec` (which must be the
    /// spec this table was built for).
    pub fn remask(&self, spec: &NetworkSpec, faults: &FaultSet) -> RouteTable {
        let network = (spec.graph.n(), spec.graph.directed_edge_count());
        assert_eq!(
            (self.n(), self.num_links()),
            network,
            "spec does not match this table (routers, directed links)"
        );
        let mask = faults.compile(&spec.graph);
        if mask == self.mask {
            return self.clone();
        }
        Self::assemble(self.graph.clone(), spec, mask)
    }

    /// The one table assembler: distances over `graph` minus the cables
    /// `mask` takes out. Pairs the mask disconnects keep
    /// [`RouteTable::UNREACHABLE`] distance (and so an empty port set).
    ///
    /// Every policy reads ports by the same rule over two distance
    /// arenas: a neighbor across a *local* link is judged on `dist`, one
    /// across a *global* link on `far`.
    /// [`RoutingPolicy::HierarchicalMinimal`] — minimal paths with at
    /// most one inter-group link, BookSim's built-in Dragonfly/Megafly
    /// MIN discipline — stores the ≤1-global distance in `dist` and the
    /// pure-local one in `far`, so a global port is minimal only if the
    /// remainder from its far end is purely local and no path ever takes
    /// two globals. [`RoutingPolicy::FlatMinimal`] has one arena and no
    /// link classes.
    ///
    /// The distances go straight into the `u16` arenas, one column per
    /// destination, fanned out over rayon: flat tables by
    /// [`masked_distance_block`], 64 destinations per graph sweep;
    /// hierarchical ones by one `local_bfs` / `one_global_bfs` per
    /// destination. The sweeps skip the slots the mask takes out: no
    /// degraded copy of the graph is built.
    fn assemble(graph: Graph, spec: &NetworkSpec, mask: FaultMask) -> Self {
        let n = graph.n();
        // The link classes of the port rule; flat tables have none.
        let group = match spec.routing_policy() {
            RoutingPolicy::FlatMinimal => Vec::new(),
            RoutingPolicy::HierarchicalMinimal => {
                assert_eq!(
                    spec.group.len(),
                    n,
                    "hierarchical routing needs a group per router"
                );
                spec.group.clone()
            }
        };
        let mut dist = vec![0u16; n * n];
        let mut far = Vec::new();
        if group.is_empty() {
            dist.par_chunks_mut(64 * n)
                .enumerate()
                .for_each(|(block, rows)| {
                    masked_distance_block(&graph, &mask, (block * 64) as u32, rows)
                });
        } else {
            far.resize(n * n, 0u16);
            far.par_chunks_mut(n)
                .enumerate()
                .for_each(|(dst, d0)| local_bfs(&graph, &mask, &group, dst as u32, d0));
            dist.par_chunks_mut(n).enumerate().for_each(|(dst, d1)| {
                one_global_bfs(&graph, &mask, &group, &far[dst * n..][..n], d1)
            });
        }
        RouteTable {
            graph,
            dist,
            group,
            far,
            mask,
        }
    }

    /// Number of routers.
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Hop distance from `r` to `dst`; [`RouteTable::UNREACHABLE`] when
    /// either id is not a router of the table.
    #[inline]
    pub fn distance(&self, r: u32, dst: u32) -> u16 {
        let n = self.n();
        if r as usize >= n || dst as usize >= n {
            return Self::UNREACHABLE;
        }
        self.dist[dst as usize * n + r as usize]
    }

    /// Whether any surviving path connects `r` to `dst` (true for
    /// `r == dst`, false when either id is not a router of the table).
    #[inline]
    pub fn is_reachable(&self, r: u32, dst: u32) -> bool {
        self.distance(r, dst) != Self::UNREACHABLE
    }

    /// `(CSR slot, neighbor)` of every minimal next hop of `r` toward
    /// `dst`, in port order.
    #[inline]
    fn min_hops(&self, r: u32, dst: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.hops_from(r, dst, self.graph.edge_range(r).start)
    }

    /// [`RouteTable::min_hops`] behind `r`'s CSR slots from `from` on:
    /// the masked port rule over `dst`'s distance column —
    /// [`column_next_hops_from`] itself on a flat table. A hierarchical
    /// table adds one clause: a port that crosses groups is judged on
    /// the pure-local column of `far`.
    ///
    /// One hop out, both rules have one candidate, `dst`: it is the only
    /// router reading 0 in either column. So a router at distance 1
    /// probes that one slot instead of scanning its neighbors.
    #[inline]
    fn hops_from(&self, r: u32, dst: u32, from: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let (g, n) = (&self.graph, self.n());
        let col = &self.dist[dst as usize * n..][..n];
        let dr = col[r as usize];
        if dr == 1 {
            let slot = g.edge_id(r, dst);
            let live = slot.filter(|&e| e >= from && !self.mask.link_dead(e));
            return Hops::One(live.map(|e| (e, dst)));
        }
        if self.far.is_empty() {
            return Hops::Flat(column_next_hops_from(g, col, r, from, &self.mask));
        }
        let far = &self.far[dst as usize * n..][..n];
        let (slots, home) = (g.edge_range(r), self.group[r as usize]);
        let rest = &g.neighbors(r)[(from - slots.start) as usize..];
        let hops = (from..slots.end).zip(rest.iter().copied());
        Hops::Hier(hops.filter(move |&(e, nb)| {
            let local = self.group[nb as usize] == home;
            let dn = if local { col } else { far }[nb as usize];
            dn != Self::UNREACHABLE && dn + 1 == dr && !self.mask.link_dead(e)
        }))
    }

    /// Minimal output ports at router `r` toward `dst`, ascending (none
    /// iff r == dst or dst unreachable), derived from `dst`'s distance
    /// column on each read.
    ///
    /// # Panics
    /// If `r` or `dst` is not a router of the table (an id ≥ `n`).
    #[inline]
    pub fn min_ports(&self, r: u32, dst: u32) -> impl Iterator<Item = u8> + '_ {
        let base = self.graph.edge_range(r).start;
        self.min_hops(r, dst).map(move |(e, _)| (e - base) as u8)
    }

    /// The neighbor reached through `port` of router `r`.
    #[inline]
    pub fn neighbor(&self, r: u32, port: u8) -> u32 {
        self.graph.neighbors(r)[port as usize]
    }

    /// All neighbors of router `r`, in port order.
    #[inline]
    pub fn neighbors(&self, r: u32) -> &[u32] {
        self.graph.neighbors(r)
    }

    /// Degree of router `r`.
    #[inline]
    pub fn degree(&self, r: u32) -> usize {
        self.graph.degree(r)
    }

    /// Directed links of the table's graph — with [`RouteTable::n`], the
    /// shape a table and the network it routes must share.
    pub fn num_links(&self) -> usize {
        self.graph.directed_edge_count()
    }

    /// The compiled fault epoch this table was assembled under (bitless
    /// when pristine). A fault set that compiles to an equal mask is
    /// served by this very table: [`RouteTable::remask`] hands back a
    /// copy, and holders of a shared table (the serving oracle's `Arc`,
    /// the engine's borrowed epoch 0) keep sharing it.
    pub fn mask(&self) -> &FaultMask {
        &self.mask
    }

    /// Bytes held by the table's distance arenas, group map, its graph's
    /// CSR (`usize` offsets, `u32` slots) and its fault mask (none when
    /// pristine); capacity overshoot and the struct header excluded.
    /// Lets sweeps budget per-config routing state up front.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        size_of_val(&self.dist[..])
            + size_of_val(&self.far[..])
            + size_of_val(&self.group[..])
            + (self.n() + 1) * size_of::<usize>()
            + self.num_links() * size_of::<u32>()
            + self.mask.memory_bytes()
    }
}

/// The minimal next hops of one table read: the one probed hop of a
/// router next to the destination, else the shared port rule on a flat
/// table or the rule with its global-port clause on a hierarchical one.
/// (A chain of two `Option`s measured ≈ 2× slower per drained read.)
enum Hops<F, H> {
    One(Option<(u32, u32)>),
    Flat(F),
    Hier(H),
}

impl<F, H> Iterator for Hops<F, H>
where
    F: Iterator<Item = (u32, u32)>,
    H: Iterator<Item = (u32, u32)>,
{
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        match self {
            Hops::One(hop) => hop.take(),
            Hops::Flat(f) => f.next(),
            Hops::Hier(h) => h.next(),
        }
    }
}

impl PathOracle for RouteTable {
    fn num_routers(&self) -> usize {
        self.n()
    }

    /// Typed-error variant of the inherent [`RouteTable::distance`]: the
    /// [`RouteTable::UNREACHABLE`] sentinel surfaces as
    /// [`RouteError::Unreachable`] instead of an in-band `u16::MAX`.
    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        let n = self.n() as u32;
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
        out.extend(self.min_hops(src, dst).map(|(_, nb)| nb));
        Ok(())
    }

    // The three walks below answer as the provided methods do (same
    // next-hop order, same typed errors), reading the destination's
    // column in place instead of copying every router's next hops into a
    // fresh `Vec`.

    fn next_hop(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        PathOracle::distance(self, src, dst)?;
        if src == dst {
            return Ok(dst);
        }
        let (_, nb) = self
            .min_hops(src, dst)
            .next()
            .ok_or(RouteError::Unreachable { src, dst })?;
        Ok(nb)
    }

    fn path(&self, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
        let hops = PathOracle::distance(self, src, dst)? as usize;
        let mut path = Vec::with_capacity(hops + 1);
        path.push(src);
        let mut cur = src;
        while cur != dst {
            (_, cur) = self
                .min_hops(cur, dst)
                .next()
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
        // is the current prefix, each router with the CSR slot its scan
        // resumes at, the one after the child it took last — so a frame
        // reads its router's neighbors once, not once per child.
        let first_slot = |r: u32| self.graph.edge_range(r).start as usize;
        let mut out = Vec::new();
        let mut stack: Vec<(u32, usize)> = Vec::with_capacity(hops);
        stack.push((src, first_slot(src)));
        while let Some((r, from)) = stack.last_mut() {
            let Some((e, next)) = self.hops_from(*r, dst, *from as u32).next() else {
                stack.pop();
                continue;
            };
            *from = e as usize + 1;
            if next != dst {
                stack.push((next, first_slot(next)));
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

    /// The minimal ports of `(r, dst)`, collected.
    fn port_list(t: &RouteTable, r: u32, dst: u32) -> Vec<u8> {
        t.min_ports(r, dst).collect()
    }

    #[test]
    fn table_on_cycle() {
        let g = Graph::cycle(6);
        let t = flat(&g);
        assert_eq!(t.distance(0, 3), 3);
        assert_eq!(t.distance(0, 1), 1);
        // Opposite vertex: both directions are minimal.
        assert_eq!(port_list(&t, 0, 3).len(), 2);
        // Adjacent: single minimal port.
        let ports = port_list(&t, 0, 1);
        assert_eq!(ports.len(), 1);
        assert_eq!(t.neighbor(0, ports[0]), 1);
        assert!(port_list(&t, 2, 2).is_empty());
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
                assert!(!port_list(&t, r, dst).is_empty(), "{r}->{dst}");
                for p in t.min_ports(r, dst) {
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
                    assert_eq!(port_list(&t, r, dst).len(), 1);
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
                for p0 in t.min_ports(src, dst) {
                    let mut cur = t.neighbor(src, p0);
                    let mut globals = usize::from(df.group[src as usize] != df.group[cur as usize]);
                    let mut hops = 1;
                    while cur != dst {
                        let ports = port_list(&t, cur, dst);
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
                    assert!(!port_list(&t, a, b).is_empty());
                }
            }
        }
    }

    #[test]
    fn memory_bytes_matches_component_sum_on_table3_config() {
        // Table 3's PS-IQ entry: radix-15 PolarStar with p = 5 (1064
        // routers). memory_bytes must equal the exact sum of the flat
        // arena sizes so sweep planners can trust it as a budget: the
        // distances, the graph's CSR and, once faulted, the mask.
        let cfg = polarstar::design::best_config(15).unwrap();
        let net = polarstar::network::PolarStarNetwork::build(cfg, 5)
            .unwrap()
            .spec;
        let n = net.graph.n();
        assert_eq!(n, 1064);
        let t = RouteTable::for_spec(&net);
        let sum_deg: usize = (0..n as u32).map(|r| net.graph.degree(r)).sum();
        let expect = n * n * 2            // dist: u16 per (r, dst)
            + (n + 1) * 8                 // graph offsets: usize
            + sum_deg * 4; // graph neighbors: u32
        assert_eq!(t.memory_bytes(), expect);
        // Sanity: the whole routing state for a 1064-router Table-3
        // config stays under 2.5 MiB.
        assert!(t.memory_bytes() < 5 << 19, "{} bytes", t.memory_bytes());
        let faulted = t.remask(&net, &FaultSet::random_links(&net.graph, 0.05, 1));
        assert!(faulted.mask().memory_bytes() > 0);
        assert_eq!(
            faulted.memory_bytes(),
            expect + faulted.mask().memory_bytes()
        );
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
        for p in t.min_ports(0, 1) {
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
        assert!(port_list(&t, 0, 3).is_empty());
        assert!(port_list(&t, 1, 2).is_empty());
        // Within each side routing still works.
        assert!(t.is_reachable(0, 1));
        assert_eq!(port_list(&t, 2, 3).len(), 1);
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
                assert!(port_list(&t, r, 2).is_empty());
                // No surviving pair routes through the dead router.
                for dst in 0..5u32 {
                    for p in t.min_ports(r, dst) {
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
                    assert!(!port_list(&t, src, dst).is_empty(), "{src}→{dst}");
                    for p in t.min_ports(src, dst) {
                        let nb = t.neighbor(src, p);
                        assert!(!((src == u && nb == v) || (src == v && nb == u)));
                    }
                } else {
                    assert!(port_list(&t, src, dst).is_empty(), "{src}→{dst}");
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
                assert_eq!(port_list(a, r, dst), port_list(b, r, dst), "{r}→{dst}");
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
        assert_eq!(
            masked.memory_bytes(),
            pristine.memory_bytes() + masked.mask().memory_bytes()
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
                assert_eq!(port_list(t, r, dst), ports, "{what}: ports {r}→{dst}");
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

        /// Distances stay undirected under the faults that could break
        /// that: one-way links and dead routers. The flat table's ports,
        /// read off its `u16` block-BFS column, must agree with the
        /// `u32` column form of the same relation,
        /// `masked_distance_column` + `column_next_hops`.
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
                    proptest::prop_assert_eq!(port_list(&flat, b, a), ports, "ports {}→{}", b, a);
                }
            }
        }
    }

    #[test]
    fn oracle_errors_distinguish_unreachable_from_degree_zero() {
        use polarstar_topo::oracle::{PathOracle, RouteError};
        use polarstar_topo::FaultSet;
        // Path 0-1-2-3 with (1, 2) cut: min_ports(0, 3) and min_ports(3, 3)
        // are both empty — the silent fallback this trait fixes.
        // The oracle surface tells them apart with a typed error.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let f = FaultSet::from_links([(1, 2)]);
        let t = masked(&g, &f);
        assert!(port_list(&t, 0, 3).is_empty());
        assert!(port_list(&t, 3, 3).is_empty());
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

    /// A table seen only through the two required oracle methods, so
    /// its walks are the trait's provided ones.
    struct Provided<'a>(&'a RouteTable);

    impl PathOracle for Provided<'_> {
        fn num_routers(&self) -> usize {
            self.0.n()
        }

        fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
            PathOracle::distance(self.0, src, dst)
        }

        fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
            self.0.min_next_hops(src, dst, out)
        }
    }

    #[test]
    fn table_walks_equal_the_provided_walks() {
        let rr = NetworkSpec::uniform(
            "rr30",
            polarstar_graph::random::random_regular(30, 4, 3).unwrap(),
            1,
        );
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
        for spec in [rr, df, mf] {
            // The flat network's routers are groups of one: every link
            // there is global.
            let global = spec
                .graph
                .edges()
                .find(|&(u, v)| spec.group[u as usize] != spec.group[v as usize])
                .unwrap();
            let masks = [
                ("pristine", FaultSet::empty()),
                ("10% links", FaultSet::random_links(&spec.graph, 0.1, 5)),
                ("one-way link", FaultSet::from_directed_links([global])),
                ("two routers", FaultSet::from_routers([1, global.1])),
            ];
            for (label, f) in masks {
                let t = RouteTable::for_spec(&spec.clone().with_faults(f));
                let n = t.n() as u32;
                for (src, dst) in (0..n).flat_map(|s| (0..n).map(move |d| (s, d))) {
                    let what = format!("{} / {label}: {src}→{dst}", spec.name);
                    let reference = Provided(&t);
                    assert_eq!(t.next_hop(src, dst), reference.next_hop(src, dst), "{what}");
                    assert_eq!(t.path(src, dst), reference.path(src, dst), "{what}");
                    for k in [1, 4, usize::MAX] {
                        let want = reference.k_paths(src, dst, k);
                        assert_eq!(t.k_paths(src, dst, k), want, "{what}, k = {k}");
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_range_ids_are_unreachable() {
        let t = flat(&Graph::cycle(4));
        for (r, dst) in [(4, 0), (6, 1), (5, 3), (0, 4), (2, u32::MAX), (u32::MAX, 0)] {
            assert_eq!(t.distance(r, dst), RouteTable::UNREACHABLE, "{r}→{dst}");
            assert!(!t.is_reachable(r, dst), "{r}→{dst}");
        }
        assert_eq!(t.distance(0, 1), 1);
        assert!(t.is_reachable(3, 3));
    }

    #[test]
    fn storage_scales_with_path_diversity() {
        // HyperX-like graphs have more minimal ports than a cycle.
        let hx = polarstar_topo::hyperx::hyperx(&[4, 4], 1);
        let t = RouteTable::for_spec(&hx);
        // For routers differing in both coordinates there are 2 minimal
        // first hops.
        let entries: usize = (0..16u32)
            .flat_map(|r| (0..16u32).map(move |dst| (r, dst)))
            .map(|(r, dst)| t.min_ports(r, dst).count())
            .sum();
        assert!(entries > 16 * 15);
        // The bytes do not scale with it: a flat table stores distances
        // and the graph, a hierarchical one adds its pure-local arena
        // and the group map.
        let csr = |g: &Graph| (g.n() + 1) * 8 + g.directed_edge_count() * 4;
        assert_eq!(t.memory_bytes(), 16 * 16 * 2 + csr(&hx.graph));
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        let n = df.graph.n();
        assert_eq!(
            RouteTable::for_spec(&df).memory_bytes(),
            2 * n * n * 2 + n * 4 + csr(&df.graph)
        );
    }
}
