//! Routing state: minimal next-hop tables and the §9.3 routing schemes.
//!
//! A [`RouteTable`] stores, for every (router, destination-router) pair,
//! the hop distance, and reads the output ports lying on minimal paths
//! off the destination's distance column on demand — the "all minpaths"
//! answers the paper attributes to SF/BF tables (and that HyperX computes
//! by coordinate alignment), from `n²` bytes — one per pair, two only
//! when some finite distance reaches 255 — and no port arena. A read
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

use polarstar_graph::traversal::sweep_block;
use polarstar_graph::Graph;
use polarstar_topo::fault::{FaultMask, FaultSet};
use polarstar_topo::network::{NetworkSpec, RoutingPolicy};
use polarstar_topo::oracle::{
    column_next_hops_from, masked_distance_block, PathOracle, RouteError,
};
use rayon::prelude::*;
use std::ops::{Add, Not};

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
/// router graph and the fault mask it was assembled under. The arena
/// holds one byte per pair when every finite distance is below
/// `u8::MAX` — every network and mask in the workspace — and two
/// otherwise; the assembler's own sweep picks the width.
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
    /// The distance arenas, at the narrowest width every finite
    /// distance fits.
    arena: Arenas,
    /// Hierarchical tables only (empty when flat): every router's group.
    group: Vec<u32>,
    /// The compiled fault epoch the table was assembled under (bitless
    /// when pristine).
    mask: FaultMask,
}

/// A distance arena element: `u8` or `u16`, its `MAX` (`!0`) standing
/// for unreachable — the value [`column_next_hops_from`] tests.
trait Width:
    Copy
    + Eq
    + Default
    + From<u8>
    + Into<u32>
    + TryFrom<u32>
    + Not<Output = Self>
    + Add<Output = Self>
    + Send
    + Sync
{
}

impl Width for u8 {}
impl Width for u16 {}

/// A table's distance arenas at one width.
#[derive(Clone)]
struct Arena<D> {
    /// dist[dst * n + r] = hop distance from router r to dst.
    dist: Vec<D>,
    /// Hierarchical tables only (empty when flat): the pure-local
    /// distances, laid out like `dist`, that a port crossing groups is
    /// judged on.
    far: Vec<D>,
}

/// The one arena of a table, at the width its sweep found: `u16` only
/// when some finite distance reaches 255.
#[derive(Clone)]
enum Arenas {
    Narrow(Arena<u8>),
    Wide(Arena<u16>),
}

impl<D: Width> Arena<D> {
    /// The assembler's sweep at width `D`, written straight into the
    /// arenas, 64 destinations per block, blocks over rayon: flat tables
    /// by [`masked_distance_block`], hierarchical ones by
    /// [`hierarchical_block`]. `None` when some finite distance does not
    /// fit below `D`'s sentinel.
    fn sweep(graph: &Graph, mask: &FaultMask, group: &[u32]) -> Option<Self> {
        let n = graph.n();
        let all = |a: bool, b: bool| a && b;
        let mut dist = vec![D::default(); n * n];
        if group.is_empty() {
            let fits = dist
                .par_chunks_mut(64 * n)
                .enumerate()
                .map(|(block, rows)| masked_distance_block(graph, mask, (block * 64) as u32, rows))
                .reduce(|| true, all);
            return fits.then_some(Arena {
                dist,
                far: Vec::new(),
            });
        }
        let mut far = vec![D::default(); n * n];
        let fits = far
            .chunks_mut(64 * n)
            .zip(dist.chunks_mut(64 * n))
            .enumerate()
            .into_par_iter()
            .map(|(block, (far, dist))| {
                hierarchical_block(graph, mask, group, (block * 64) as u32, far, dist)
            })
            .reduce(|| true, all);
        fits.then_some(Arena { dist, far })
    }

    /// Bytes of both arenas.
    fn bytes(&self) -> usize {
        std::mem::size_of_val(&self.dist[..]) + std::mem::size_of_val(&self.far[..])
    }
}

impl RouteTable {
    /// Distance sentinel for pairs no surviving path connects. Never a
    /// real distance: [`RouteTable::for_spec`] refuses graphs of 65 535
    /// routers or more, so a real one is at most 65 533. A table whose
    /// arena is one byte wide stores `u8::MAX` and reads it as this.
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
    /// distances (the wide arena), or the policy is hierarchical and the
    /// group length does not match the graph.
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
    ///
    /// # Panics
    /// With "spec does not match this table's graph" if `spec.graph` is
    /// not the graph the table was built on — another router count,
    /// other links, or the same counts wired differently. A mask
    /// compiled on another graph names the wrong CSR slots.
    pub fn remask(&self, spec: &NetworkSpec, faults: &FaultSet) -> RouteTable {
        assert!(
            self.routes(&spec.graph),
            "spec does not match this table's graph"
        );
        let mask = faults.compile(&self.graph);
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
    /// The distances go straight into `u8` arenas, one column per
    /// destination, fanned out over rayon ([`Arena::sweep`]); only if a
    /// finite distance reaches `u8::MAX` is that sweep dropped and rerun
    /// into `u16` arenas, which hold every distance `for_spec` admits.
    /// The sweeps skip the slots the mask takes out: no degraded copy of
    /// the graph is built.
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
        let arena = match Arena::sweep(&graph, &mask, &group) {
            Some(narrow) => Arenas::Narrow(narrow),
            None => Arenas::Wide(
                Arena::sweep(&graph, &mask, &group)
                    .expect("u16 holds every distance of fewer than 65 535 routers"),
            ),
        };
        RouteTable {
            graph,
            arena,
            group,
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
        let i = dst as usize * n + r as usize;
        match &self.arena {
            Arenas::Narrow(a) => match a.dist[i] {
                u8::MAX => Self::UNREACHABLE,
                d => d.into(),
            },
            Arenas::Wide(a) => a.dist[i],
        }
    }

    /// Whether any surviving path connects `r` to `dst` (true for
    /// `r == dst`, false when either id is not a router of the table).
    #[inline]
    pub fn is_reachable(&self, r: u32, dst: u32) -> bool {
        self.distance(r, dst) != Self::UNREACHABLE
    }

    /// `(CSR slot, neighbor)` of every minimal next hop of `r` toward
    /// `dst`, in port order, read from the arena at its width.
    #[inline]
    fn min_hops(&self, r: u32, dst: u32) -> impl Iterator<Item = (u32, u32)> + '_ {
        let from = self.graph.edge_range(r).start;
        match &self.arena {
            Arenas::Narrow(a) => ByWidth::Narrow(self.arena_hops(a, r, dst, from)),
            Arenas::Wide(a) => ByWidth::Wide(self.arena_hops(a, r, dst, from)),
        }
    }

    /// The first of [`RouteTable::min_hops`], read without wrapping
    /// either width's iterator.
    #[inline]
    fn first_hop(&self, r: u32, dst: u32) -> Option<(u32, u32)> {
        let from = self.graph.edge_range(r).start;
        match &self.arena {
            Arenas::Narrow(a) => self.arena_hops(a, r, dst, from).next(),
            Arenas::Wide(a) => self.arena_hops(a, r, dst, from).next(),
        }
    }

    /// `(CSR slot, neighbor)` of every minimal next hop of `r` toward
    /// `dst` behind `r`'s CSR slots from `from` on: the masked port rule
    /// over `dst`'s distance column —
    /// [`column_next_hops_from`] itself on a flat table. A hierarchical
    /// table adds one clause: a port that crosses groups is judged on
    /// the pure-local column of `far`.
    ///
    /// One hop out, both rules have one candidate, `dst`: it is the only
    /// router reading 0 in either column. So a router at distance 1
    /// probes that one slot instead of scanning its neighbors.
    #[inline]
    fn arena_hops<'a, D: Width>(
        &'a self,
        arena: &'a Arena<D>,
        r: u32,
        dst: u32,
        from: u32,
    ) -> impl Iterator<Item = (u32, u32)> + 'a {
        let (g, n) = (&self.graph, self.n());
        let col = &arena.dist[dst as usize * n..][..n];
        let (dr, one, unreachable) = (col[r as usize], D::from(1), !D::default());
        if dr == one {
            let slot = g.edge_id(r, dst);
            let live = slot.filter(|&e| e >= from && !self.mask.link_dead(e));
            return Hops::One(live.map(|e| (e, dst)));
        }
        if arena.far.is_empty() {
            return Hops::Flat(column_next_hops_from(g, col, r, from, &self.mask));
        }
        let far = &arena.far[dst as usize * n..][..n];
        let (slots, home) = (g.edge_range(r), self.group[r as usize]);
        let rest = &g.neighbors(r)[(from - slots.start) as usize..];
        let hops = (from..slots.end).zip(rest.iter().copied());
        Hops::Hier(hops.filter(move |&(e, nb)| {
            let local = self.group[nb as usize] == home;
            let dn = if local { col } else { far }[nb as usize];
            dn != unreachable && dn + one == dr && !self.mask.link_dead(e)
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

    /// Directed links of the table's graph.
    pub fn num_links(&self) -> usize {
        self.graph.directed_edge_count()
    }

    /// Whether `graph` is the graph this table was built on, the one its
    /// ports are offsets into: equal CSR, not only equal counts. O(E).
    pub(crate) fn routes(&self, graph: &Graph) -> bool {
        self.graph == *graph
    }

    /// The compiled fault epoch this table was assembled under (bitless
    /// when pristine). A fault set that compiles to an equal mask is
    /// served by this very table: [`RouteTable::remask`] hands back a
    /// copy, and holders of a shared table (the serving oracle's `Arc`,
    /// the engine's borrowed epoch 0) keep sharing it.
    pub fn mask(&self) -> &FaultMask {
        &self.mask
    }

    /// Bytes held by the table's distance arenas (at their width: one
    /// or two bytes per pair), group map, its graph's CSR (`usize`
    /// offsets, `u32` slots) and its fault mask (none when pristine);
    /// capacity overshoot and the struct header excluded. Lets sweeps
    /// budget per-config routing state up front.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::{size_of, size_of_val};
        let arena = match &self.arena {
            Arenas::Narrow(a) => a.bytes(),
            Arenas::Wide(a) => a.bytes(),
        };
        arena
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

    // A drain runs the rule's own filter loop, as `column_next_hops`
    // asks of its callers.
    #[inline]
    fn fold<B, G>(self, init: B, g: G) -> B
    where
        G: FnMut(B, (u32, u32)) -> B,
    {
        match self {
            Hops::One(hop) => hop.into_iter().fold(init, g),
            Hops::Flat(f) => f.fold(init, g),
            Hops::Hier(h) => h.fold(init, g),
        }
    }
}

/// One table read at the arena's width.
enum ByWidth<N, W> {
    Narrow(N),
    Wide(W),
}

impl<N, W> Iterator for ByWidth<N, W>
where
    N: Iterator<Item = (u32, u32)>,
    W: Iterator<Item = (u32, u32)>,
{
    type Item = (u32, u32);

    #[inline]
    fn next(&mut self) -> Option<(u32, u32)> {
        match self {
            ByWidth::Narrow(n) => n.next(),
            ByWidth::Wide(w) => w.next(),
        }
    }

    // A drain (`for_each`, `count`) dispatches once, then runs the
    // width's own loop.
    #[inline]
    fn fold<B, F>(self, init: B, f: F) -> B
    where
        F: FnMut(B, (u32, u32)) -> B,
    {
        match self {
            ByWidth::Narrow(n) => n.fold(init, f),
            ByWidth::Wide(w) => w.fold(init, f),
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
            .first_hop(src, dst)
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
        Ok(match &self.arena {
            Arenas::Narrow(a) => self.k_paths_in(a, src, dst, k, hops),
            Arenas::Wide(a) => self.k_paths_in(a, src, dst, k, hops),
        })
    }
}

impl RouteTable {
    /// The [`PathOracle::k_paths`] walk of a reachable pair `src ≠ dst`,
    /// `hops` apart, over the arena at its width: one dispatch per
    /// walk, not one per step.
    fn k_paths_in<D: Width>(
        &self,
        arena: &Arena<D>,
        src: u32,
        dst: u32,
        k: usize,
        hops: usize,
    ) -> Vec<Vec<u32>> {
        // Depth-first over the minimal-path DAG in port order: the stack
        // is the current prefix, each router with the CSR slot its scan
        // resumes at, the one after the child it took last — so a frame
        // reads its router's neighbors once, not once per child.
        let first_slot = |r: u32| self.graph.edge_range(r).start as usize;
        let mut out = Vec::new();
        let mut stack: Vec<(u32, usize)> = Vec::with_capacity(hops);
        stack.push((src, first_slot(src)));
        while let Some((r, from)) = stack.last_mut() {
            let Some((e, next)) = self.arena_hops(arena, *r, dst, *from as u32).next() else {
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
        out
    }
}

/// One block of a hierarchical table: the destinations `first, first +
/// 1, …`, one `graph.n()`-entry row each in `far` and `dist`, laid out
/// like [`masked_distance_block`]'s rows. Two [`sweep_block`] passes
/// from the destinations over the live intra-group slots:
///
/// 1. writes the pure-local distances `far`; a router it first reaches
///    at level `L` queues the seed `(L + 1, w, bits)` for each neighbor
///    `w` behind a live global slot;
/// 2. with those seeds joining at their levels, writes the ≤ 1-global
///    distances `dist`: local prefix, one global hop, local suffix.
///
/// Returns whether every distance fit below `D`'s sentinel; the rows are
/// unspecified when not. A seed at the sentinel refuses the width even
/// if a shorter path wins later: the table then takes the wide arena,
/// which holds both.
fn hierarchical_block<D: Width>(
    graph: &Graph,
    mask: &FaultMask,
    group: &[u32],
    first: u32,
    far: &mut [D],
    dist: &mut [D],
) -> bool {
    let n = graph.n();
    let dsts: Vec<u32> = (first..).take(far.len() / n).collect();
    let (unreachable, zero) = (!D::default(), D::default());
    let last = unreachable.into() - 1;
    let local = |u: u32, e, v: u32| group[u as usize] == group[v as usize] && !mask.edge_dead(e);
    let write = |rows: &mut [D], level: u32, v: u32, mut fresh: u64| {
        let Ok(d) = D::try_from(level) else {
            unreachable!("level {level} past the last one, {last}")
        };
        while fresh != 0 {
            rows[fresh.trailing_zeros() as usize * n + v as usize] = d;
            fresh &= fresh - 1;
        }
    };
    let mut seeds = Vec::new();
    let mut cross = |level: u32, u: u32, bits: u64| {
        for (e, &w) in graph.edge_range(u).zip(graph.neighbors(u)) {
            if group[w as usize] != group[u as usize] && !mask.edge_dead(e) {
                seeds.push((level + 1, w, bits));
            }
        }
    };
    far.fill(unreachable);
    dist.fill(unreachable);
    for (i, &dst) in dsts.iter().enumerate() {
        (far[i * n + dst as usize], dist[i * n + dst as usize]) = (zero, zero);
        cross(0, dst, 1 << i);
    }
    let fits = sweep_block(graph, &dsts, &[], last, local, |level, v, fresh, _| {
        write(far, level, v, fresh);
        cross(level, v, fresh);
    });
    fits && seeds.last().is_none_or(|s| s.0 <= last)
        && sweep_block(graph, &dsts, &seeds, last, local, |level, v, fresh, _| {
            write(dist, level, v, fresh)
        })
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
        assert_eq!(g.neighbors(0)[ports[0] as usize], 1);
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
                    let nb = g.neighbors(r)[p as usize];
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
                    let mut cur = df.graph.neighbors(src)[p0 as usize];
                    let mut globals = usize::from(df.group[src as usize] != df.group[cur as usize]);
                    let mut hops = 1;
                    while cur != dst {
                        let ports = port_list(&t, cur, dst);
                        assert!(!ports.is_empty(), "stuck at {cur} toward {dst}");
                        let next = df.graph.neighbors(cur)[ports[0] as usize];
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
        let expect = n * n                // dist: u8 per (r, dst)
            + (n + 1) * 8                 // graph offsets: usize
            + sum_deg * 4; // graph neighbors: u32
        assert_eq!(t.memory_bytes(), expect);
        // Sanity: the whole routing state for a 1064-router Table-3
        // config stays under 1.25 MiB.
        assert!(t.memory_bytes() < 5 << 18, "{} bytes", t.memory_bytes());
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
        // Port p of router r is the graph's p-th neighbor of r: the
        // ports read through that slice are exactly the neighbors one
        // hop closer, in adjacency order.
        for r in 0..30u32 {
            for dst in 0..30u32 {
                let d = t.distance(r, dst);
                let closer: Vec<u32> = g
                    .neighbors(r)
                    .iter()
                    .copied()
                    .filter(|&nb| d > 0 && t.distance(nb, dst) + 1 == d)
                    .collect();
                let ports: Vec<u32> = t
                    .min_ports(r, dst)
                    .map(|p| g.neighbors(r)[p as usize])
                    .collect();
                assert_eq!(ports, closer, "{r}→{dst}");
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
        // Ports index the pristine adjacency: the one left toward 1 is
        // the long way round, through 5.
        let ports: Vec<u32> = t
            .min_ports(0, 1)
            .map(|p| g.neighbors(0)[p as usize])
            .collect();
        assert_eq!(ports, vec![5], "failed link offered as port");
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
                        assert_ne!(g.neighbors(r)[p as usize], 2);
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
                        let nb = df.graph.neighbors(src)[p as usize];
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
            assert_eq!(a.graph.neighbors(r), b.graph.neighbors(r), "CSR row {r}");
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
    #[should_panic(expected = "spec does not match this table's graph")]
    fn remask_rejects_a_spec_of_equal_size_and_other_links() {
        use polarstar_topo::FaultSet;
        let table = flat(&Graph::complete(8));
        let other = Graph::complete(8).without_edges(&[(0, 1)]);
        let other = polarstar_topo::NetworkSpec::uniform("other", other, 2);
        let _ = table.remask(&other, &FaultSet::empty());
    }

    /// Two 4-regular graphs on 64 routers, and every link of router 0
    /// failed: equal counts, other wiring.
    fn same_shape_pair() -> (NetworkSpec, NetworkSpec, FaultSet) {
        let rr = |seed| polarstar_graph::random::random_regular(64, 4, seed).unwrap();
        let (a, b) = (rr(1), rr(2));
        assert_eq!(
            (a.n(), a.directed_edge_count()),
            (b.n(), b.directed_edge_count())
        );
        assert_ne!(a, b);
        let cut = FaultSet::from_links(a.neighbors(0).iter().map(|&v| (0, v)));
        (
            NetworkSpec::uniform("a", a, 1),
            NetworkSpec::uniform("b", b, 1),
            cut,
        )
    }

    #[test]
    fn remask_on_the_tables_own_graph_isolates_a_cut_router() {
        let (a, _, cut) = same_shape_pair();
        let t = flat(&a.graph).remask(&a, &cut);
        assert_tables_equal(&t, &masked(&a.graph, &cut));
        assert!(!t.is_reachable(5, 0));
    }

    #[test]
    #[should_panic(expected = "spec does not match this table's graph")]
    fn remask_rejects_a_spec_of_the_same_shape() {
        // Compiled on `b`, the mask would name `b`'s slots in `a`'s CSR:
        // 194 of 4 096 pairs differ and router 0 stays reachable.
        let (a, b, cut) = same_shape_pair();
        let _ = flat(&a.graph).remask(&b, &cut);
    }

    #[test]
    #[should_panic(expected = "distances are stored as u16")]
    fn for_spec_rejects_a_graph_whose_distances_could_reach_the_sentinel() {
        let _ = flat(&Graph::empty(u16::MAX as usize));
    }

    /// Brute-force reference for the hierarchical discipline, sharing
    /// nothing with `hierarchical_block`/`assemble`: a forward
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

    /// Ground truth as an oracle, sharing nothing with the table:
    /// distances from brute-force BFS over the degraded graph — plain
    /// for a flat table, [`ref_distances`] with its global budget for a
    /// hierarchical one — and minimal next hops by the port rule's
    /// definition. Its walks are the trait's provided ones.
    struct Truth {
        graph: Graph,
        faults: FaultSet,
        /// `full[x][dst]`: the table's distance from `x` to `dst`.
        full: Vec<Vec<u32>>,
        /// Hierarchical only: the pure-local distances a port crossing
        /// groups is judged on, and the groups.
        local: Option<(Vec<Vec<u32>>, Vec<u32>)>,
    }

    impl Truth {
        fn flat(g: &Graph, faults: &FaultSet) -> Self {
            let degraded = faults.degraded_graph(g);
            let full = (0..g.n() as u32)
                .map(|x| polarstar_graph::traversal::bfs_distances(&degraded, x))
                .collect();
            Truth {
                graph: g.clone(),
                faults: faults.clone(),
                full,
                local: None,
            }
        }

        fn hierarchical(spec: &NetworkSpec, faults: &FaultSet) -> Self {
            let degraded = faults.degraded_graph(&spec.graph);
            let from = |budget| {
                (0..spec.graph.n() as u32)
                    .map(|x| ref_distances(&degraded, &spec.group, x, budget))
                    .collect()
            };
            Truth {
                graph: spec.graph.clone(),
                faults: faults.clone(),
                full: from(1),
                local: Some((from(0), spec.group.clone())),
            }
        }
    }

    impl PathOracle for Truth {
        fn num_routers(&self) -> usize {
            self.graph.n()
        }

        fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
            let routers = self.graph.n() as u32;
            if let Some(id) = [src, dst].into_iter().find(|&id| id >= routers) {
                return Err(RouteError::OutOfRange { id, routers });
            }
            match self.full[src as usize][dst as usize] {
                u32::MAX => Err(RouteError::Unreachable { src, dst }),
                d => Ok(d),
            }
        }

        fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
            let d = PathOracle::distance(self, src, dst)?;
            for &nb in self.graph.neighbors(src) {
                let rest = match &self.local {
                    Some((local, group)) if group[src as usize] != group[nb as usize] => {
                        local[nb as usize][dst as usize]
                    }
                    _ => self.full[nb as usize][dst as usize],
                };
                if d > 0 && !self.faults.link_failed(src, nb) && rest != u32::MAX && rest + 1 == d {
                    out.push(nb);
                }
            }
            Ok(())
        }
    }

    /// Every (router, destination) entry of `t` against `truth`: the
    /// distance, the minimal ports as neighbors, and — on every pair of
    /// a small table, a sample of a large one — the `k_paths` walks.
    /// Disconnected pairs read `UNREACHABLE` with no ports.
    fn assert_table_is_truth(t: &RouteTable, truth: &Truth, what: &str) {
        let n = t.n() as u32;
        assert_eq!(n as usize, truth.graph.n(), "{what}");
        for r in 0..n {
            let row = truth.graph.neighbors(r);
            assert_eq!(t.graph.neighbors(r), row, "{what}: CSR row {r}");
        }
        for (r, dst) in (0..n).flat_map(|r| (0..n).map(move |dst| (r, dst))) {
            let want = PathOracle::distance(truth, r, dst);
            assert_eq!(PathOracle::distance(t, r, dst), want, "{what}: {r}→{dst}");
            let short = want.map_or(RouteTable::UNREACHABLE, |d| d as u16);
            assert_eq!(t.distance(r, dst), short, "{what}: {r}→{dst}");
            let mut hops = Vec::new();
            if want.is_ok() {
                truth.min_next_hops(r, dst, &mut hops).unwrap();
            }
            let row = truth.graph.neighbors(r);
            let ports: Vec<u32> = t.min_ports(r, dst).map(|p| row[p as usize]).collect();
            assert_eq!(ports, hops, "{what}: ports {r}→{dst}");
            if n <= 64 || (r * 31 + dst) % 97 == 0 {
                for k in [1, 4, 64] {
                    let paths = t.k_paths(r, dst, k);
                    assert_eq!(
                        paths,
                        truth.k_paths(r, dst, k),
                        "{what}: {r}→{dst}, k = {k}"
                    );
                }
            }
        }
    }

    /// [`assert_table_is_truth`] for a hierarchical table.
    fn assert_matches_hierarchical_reference(
        t: &RouteTable,
        spec: &NetworkSpec,
        faults: &FaultSet,
        what: &str,
    ) {
        assert_table_is_truth(t, &Truth::hierarchical(spec, faults), what);
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
        /// read off its `u8` block-BFS column, must agree with the
        /// `u32` column form of the same relation,
        /// `masked_distance_column` + `column_next_hops`, and its
        /// distances, ports and walks with BFS ground truth.
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
            let spec = NetworkSpec::new("g", g.clone(), vec![1; n], group)
                .with_policy(RoutingPolicy::HierarchicalMinimal);
            let hier = RouteTable::for_spec(&spec.clone().with_faults(faults.clone()));
            assert_table_is_truth(&flat, &Truth::flat(&g, &faults), "flat");
            assert_table_is_truth(&hier, &Truth::hierarchical(&spec, &faults), "hier");
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
        // The bytes do not scale with it: a flat table stores one-byte
        // distances and the graph, a hierarchical one adds its
        // pure-local arena and the group map.
        let csr = |g: &Graph| (g.n() + 1) * 8 + g.directed_edge_count() * 4;
        assert_eq!(t.memory_bytes(), 16 * 16 + csr(&hx.graph));
        let df = polarstar_topo::dragonfly::dragonfly(polarstar_topo::dragonfly::DragonflyParams {
            a: 4,
            h: 2,
            p: 1,
        });
        let n = df.graph.n();
        assert_eq!(
            RouteTable::for_spec(&df).memory_bytes(),
            2 * n * n + n * 4 + csr(&df.graph)
        );
    }

    /// Bytes per (router, destination) pair of one distance arena.
    fn width(t: &RouteTable) -> usize {
        match t.arena {
            Arenas::Narrow(_) => 1,
            Arenas::Wide(_) => 2,
        }
    }

    /// Every pair of a flat table against the `u32` column BFS and the
    /// port rule under the table's own mask.
    fn assert_flat_columns(t: &RouteTable, g: &Graph, what: &str) {
        use polarstar_topo::oracle::{column_next_hops, masked_distance_column};
        let mut col = Vec::new();
        for dst in 0..g.n() as u32 {
            masked_distance_column(g, t.mask(), dst, &mut col);
            for r in 0..g.n() as u32 {
                let want = u16::try_from(col[r as usize]).unwrap_or(RouteTable::UNREACHABLE);
                assert_eq!(t.distance(r, dst), want, "{what}: {r}→{dst}");
                let base = g.edge_range(r).start;
                let ports = column_next_hops(g, &col, r, t.mask()).map(|(e, _)| (e - base) as u8);
                assert_eq!(
                    port_list(t, r, dst),
                    ports.collect::<Vec<_>>(),
                    "{what}: {r}→{dst}"
                );
            }
        }
    }

    #[test]
    fn a_flat_table_is_one_byte_a_pair_until_a_distance_reaches_255() {
        let csr = |g: &Graph| (g.n() + 1) * 8 + g.directed_edge_count() * 4;
        // (graph, faults, farthest finite distance): a path's ends, a
        // ring's antipodes, and a ring cut once, whose detour runs the
        // long way round.
        let cut = FaultSet::from_links([(0, 1)]);
        let cases = [
            ("path 255", Graph::path(255), FaultSet::empty(), 254),
            ("path 256", Graph::path(256), FaultSet::empty(), 255),
            ("path 300", Graph::path(300), FaultSet::empty(), 299),
            ("ring 300", Graph::cycle(300), FaultSet::empty(), 150),
            ("ring 255 cut", Graph::cycle(255), cut.clone(), 254),
            ("ring 300 cut", Graph::cycle(300), cut.clone(), 299),
        ];
        for (what, g, faults, far) in cases {
            let t = masked(&g, &faults);
            let wide = far >= 255;
            assert_eq!(width(&t), 1 + usize::from(wide), "{what}");
            let n = g.n();
            let mask = t.mask().memory_bytes();
            assert_eq!(
                t.memory_bytes(),
                width(&t) * n * n + csr(&g) + mask,
                "{what}"
            );
            let longest = (0..n as u32).map(|r| t.distance(r, 0)).max();
            assert_eq!(longest, Some(far), "{what}");
            assert_flat_columns(&t, &g, what);
            assert_table_is_truth(&t, &Truth::flat(&g, &faults), what);
            // The width follows the mask: re-masking the ring to and from
            // its cut switches arenas, and each answers as a fresh build.
            let spec = NetworkSpec::uniform(what, g.clone(), 1);
            let back = t.remask(&spec, &FaultSet::empty());
            assert_flat_columns(&back, &g, &format!("{what} (remask to ∅)"));
            assert_tables_equal(&back.remask(&spec, &faults), &t);
        }
        let ring = masked(&Graph::cycle(300), &FaultSet::empty());
        assert_eq!(width(&ring), 1);
        let spec = NetworkSpec::uniform("ring", Graph::cycle(300), 1);
        assert_eq!(width(&ring.remask(&spec, &cut)), 2);
    }

    #[test]
    fn a_hierarchical_table_widens_when_any_distance_reaches_255() {
        // Two groups, paths of `a` and `b` routers joined end to end by
        // their one global link: the farthest pair is a + b − 1 hops
        // apart. (255, 6) and (200, 200) overflow only across the link,
        // (300, 100) inside a group.
        for (a, b) in [(254, 1), (100, 100), (255, 6), (200, 200), (300, 100)] {
            let n = a + b;
            let g = Graph::path(n);
            let group = (0..n).map(|r| u32::from(r >= a)).collect();
            let spec = NetworkSpec::new("paths", g, vec![1; n], group)
                .with_policy(RoutingPolicy::HierarchicalMinimal);
            let what = format!("paths {a} + {b}");
            let t = RouteTable::for_spec(&spec);
            assert_eq!(width(&t), 1 + usize::from(n > 255), "{what}");
            assert_eq!(u32::from(t.distance(0, n as u32 - 1)), n as u32 - 1);
            assert_matches_hierarchical_reference(&t, &spec, &FaultSet::empty(), &what);
            // Cutting the global link leaves each group its own: narrow
            // again unless a group alone reaches 255.
            let cut = FaultSet::from_links([(a as u32 - 1, a as u32)]);
            let severed = t.remask(&spec, &cut);
            assert_eq!(width(&severed), 1 + usize::from(a > 255), "{what}");
            assert_matches_hierarchical_reference(&severed, &spec, &cut, &format!("{what} cut"));
        }
        // Toward router 0 of paths 255 + 1, group 1's lone router is 255
        // hops out, and only its crossing candidate says so: that one
        // destination's block refuses the byte width on its own, though
        // its pure-local pass fit.
        let (g, group) = (Graph::path(256), [vec![0; 255], vec![1]].concat());
        let pristine = FaultMask::default();
        let (mut far, mut dist) = (vec![0u8; 256], vec![0u8; 256]);
        assert!(!hierarchical_block(
            &g, &pristine, &group, 0, &mut far, &mut dist
        ));
        assert_eq!((far[254], far[255]), (254, u8::MAX), "the local pass fit");
        let (mut far, mut dist) = (vec![0u16; 256], vec![0u16; 256]);
        assert!(hierarchical_block(
            &g, &pristine, &group, 0, &mut far, &mut dist
        ));
        assert_eq!(dist[255], 255);
    }
}
