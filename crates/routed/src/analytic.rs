//! Table-free serving backend: §9.2 analytic routing as a
//! [`PathOracle`].
//!
//! A [`RouteTable`](polarstar_netsim::RouteTable) answers queries from
//! a distance arena that costs O(n²) bytes to hold and a block BFS over
//! every destination to reassemble on every fault epoch that changes the
//! mask. The analytic backend
//! keeps only factor-graph state — the network's [`DistanceKernel`]
//! (one adjacency bit row per factor vertex, whose AND gives each
//! structure pair its 2-walk middles) and the bijection f⁻¹ its
//! supernode holds — plus the current [`FaultSet`], and resolves each
//! query once, in one of three [`Regime`]s:
//!
//! * **pristine** (no faults): the distance is one
//!   [`DistanceKernel::distance`] probe, allocation-free; the minimal
//!   next hops of a router `r` hops out are its neighbors within `r − 1`
//!   hops of `dst` (a neighbor sits `r − 1`, `r` or `r + 1` out). Every
//!   such probe names the same `dst`, so the query marks `dst` and its
//!   neighbors once in a thread-local bit set: two hops out a probe is
//!   one bit test, and three hops out it is a scan of the neighbor's
//!   own list for a marked router — where its degree is at most
//!   `SCAN_MAX_DEGREE` (24); past that, the scan costs more than the
//!   kernel's 2-hop templates ([`DistanceKernel::within`]), which answer
//!   instead. The ≤ 3 levels of that *pristine-minimal DAG* are walked
//!   depth-first, in ascending port order, only as deep and as wide as
//!   the query asks (first hop, all first hops, or `k` paths). About
//!   0.5–0.6 µs a `k = 4` route-service query on PS-IQ, 1.4–1.5 µs at
//!   radix 32 and 4.3–6.3 µs at radix 64 (one core of a 2-core host).
//! * **faulted, minimal DAG intact**: the same single walk, with every
//!   edge tested against the mask. A router keeps its pristine distance
//!   iff an undirected-live edge leads to a neighbor that keeps its
//!   own; each visited router learns that from one scan of its neighbor
//!   list, which also emits its paths (rolled back should the scan end
//!   without a live edge). Every degraded path of pristine-minimal
//!   length lies on this DAG, so a walk that finds the source alive has
//!   the exact degraded distance, ports and paths. Same cost.
//! * **faulted, minimal DAG severed (escalated)**: the walk proved the
//!   degraded distance exceeds the pristine one, `d`. Then, in turn:
//!   - *one hop of slack*: the same walk with a budget of `d + 1`,
//!     entering every neighbor whose pristine distance fits the hops
//!     left. The pristine distance bounds the degraded one from below,
//!     so the walk is alive iff the degraded distance is `d + 1`, and
//!     then it emits exactly the live minimal paths, in port order. A
//!     one-way fault needs one guard: behind a usable slot that is out
//!     of the distance relation, a router may sit two levels closer,
//!     and is then no minimal next hop (a bounded walk checks that).
//!     About 1.5–2.6 µs a query on the `routed_analytic_churn` masks,
//!     and it answers 77–86 % of their escalations;
//!   - *the column*: only if the degraded distance is `d + 2` or more
//!     (or infinite), the query computes the destination's degraded
//!     distance column once — by the column repair below, not a graph
//!     sweep — and reads distance and ports off it by the table's port
//!     rule, paths by the table's own k-path walk
//!     ([`polarstar_topo::oracle::column_k_paths`]): 7–21 µs a query on
//!     those masks, the failed slack walk included.
//!
//! What is kept per query: the ≤ 5 routers of the path being extended
//! and one survivability flag per level of the recursion — fixed stack
//! state — plus the marks on `dst` and its neighbors, set after the
//! query's early returns and cleared on every exit, O(degree) each way.
//! Nothing more is needed for a single pass: the only neighbor
//! lists a query's first walk scans are the source's and, three hops
//! out, those of its level-2 neighbors, each exactly once (a level-1
//! router costs one edge probe), and every scan yields survivability
//! and paths together; at degree ≤ 24 the probes three hops out also
//! read the lists of the source's neighbors, up to the first marked
//! router. The walks — the column's too, below 8 hops —
//! allocate nothing but the paths they emit: each is made from the
//! prefix in place into the caller's path type — an inline
//! [`crate::Path`] for the route service's answers, so there only the
//! answer's `alternatives` vector, a `Vec` for [`PathOracle::k_paths`].
//! The column borrows a thread-local distance column and the repair's
//! work lists, overwritten by the next column on that thread.
//!
//! **Faulted distance columns** (the escalated query and
//! [`PathOracle::distance_column`], which the class-batched flow build
//! calls once per destination) start from the same fact the pristine
//! column does: two BFS levels out of the destination label everything,
//! because the rest sits at distance exactly 3 (§4). A mask can only
//! push routers *out* of that envelope, and only routers that lose
//! every live edge to a parent — a neighbor one level in that kept its
//! own level. So the column is labelled 0/1/2/3 as if pristine, then
//! repaired: the suspects (the far end of each dead edge out of the
//! destination, a level-1 or a level-2 router, and the children of
//! routers already lost) are checked level 1 → 2 → 3, and the routers
//! found lost are re-settled breadth-first from the distances their
//! surviving neighbors offer. Work is O(n) to label, one pass over the
//! dead-edge bits of the ~deg² routers on levels 0–2 to find suspects,
//! and O(degree) per suspect or lost router; the fault list is never
//! read and the rest of the column never looked at again, so the cost
//! follows the damage near the destination, not the size of the mask.
//! At 0.2 % failed links on a 9 954-router PolarStar that is ~15 µs
//! against ~0.75 ms for the degraded-graph BFS it replaced, and it
//! stays ahead of that BFS through 50 % (EXPERIMENTS.md, "Route
//! serving"). Debug builds check every repaired column against the
//! masked BFS (`topo::oracle::masked_distance_column`), and every answer
//! of the slack walk against the repaired column.
//!
//! What is kept per epoch: the fault set and, compiled from it by
//! [`AnalyticOracle::remask`], its [`FaultMask`] — per directed link of
//! the product graph one bit for the port rule (this direction or an
//! endpoint router failed) and one for the distance relation (either
//! direction or endpoint), plus one bit per router: 81 KB on the
//! 9 954-router, degree-32 network, against 40 KB of factor-graph
//! state. Every fault read is one of those bits — the walk's edge and
//! port tests on the slots it already scans, the repair's dead-edge and
//! live-neighbor iteration, the column's port rule; the sorted fault
//! lists are searched only to compile them, two neighbor-list searches
//! per failed direction, tens of microseconds for a 0.2 % mask. There
//! is no template cache and no distance table, so an epoch switch is
//! still an `Arc` clone plus a mask, no table reassembly: that is what
//! collapses the `RouteTable::remask` epoch-install cost
//! (`route_table.remask_ms` in the `benchmark/` ledger) to microseconds
//! (`analytic.remask_us`), and what keeps the backend's memory at the
//! factor-graph state: the kernel's rows are 133 × 3 + 8 × 1 words
//! (3.3 KB) on PS-IQ, 40 KB at radix 32, 454 KB at radix 64 and 6.1 MB
//! at radix 128, shared by every epoch's oracle behind one [`Arc`],
//! against ~1 M entries for a per-destination next-hop table on PS-IQ
//! (§9.3). A per-epoch table of answers would trade both away — it is
//! the thing this backend exists to show is unnecessary.
//!
//! Equivalence contract (pinned by `tests/analytic_vs_table.rs`):
//! distances, the full ascending minimal next-hop sets, first next hops,
//! [`PathOracle::path`] and lexicographic `k_paths` equal a freshly
//! masked `RouteTable`'s — and the trait-provided generic walks over
//! this oracle — on every config and fault mask.

use polarstar::network::PolarStarNetwork;
use polarstar_graph::Graph;
use polarstar_topo::fault::{FaultMask, FaultSet};
use polarstar_topo::oracle::{
    column_k_paths, column_next_hops, column_next_hops_from, PathOracle, RouteError,
};
use polarstar_topo::star::{DistanceKernel, StarProduct};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// A table-free [`PathOracle`] over a PolarStar network: §9.2 analytic
/// routing plus a fault mask.
///
/// Cloning shares the network and its kernel behind their [`Arc`]s and
/// copies the mask; [`AnalyticOracle::remask`] costs O(|faults|), which
/// makes fault epochs nearly free.
#[derive(Clone)]
pub struct AnalyticOracle {
    net: Arc<PolarStarNetwork>,
    /// The network's factor-graph bit rows, built once and shared by
    /// every epoch.
    kernel: Arc<DistanceKernel>,
    faults: FaultSet,
    /// `faults` compiled against the product graph: every fault read
    /// of a query or a column is a bit of this.
    mask: FaultMask,
}

/// How the analytic backend resolved (or would resolve) one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// The mask fails nothing (no faults, or none naming an edge or a
    /// router of the network): kernel probes only.
    Pristine,
    /// Faulted, but a pristine-minimal path survives: the pristine
    /// distance holds and one masked DAG walk answers.
    MinimalDagIntact,
    /// Every pristine-minimal path is cut, so the degraded distance is
    /// longer: the walk with one hop of slack answers when it is one
    /// hop longer, the destination's repaired distance column when it
    /// is more.
    Escalated,
    /// No answer: an id out of range, a failed endpoint, or no
    /// surviving path at all.
    Unreachable,
}

/// One resolved query, its paths made into `P`s (`Vec<u32>` for
/// [`PathOracle::k_paths`], [`crate::Path`] for the route service's
/// answers).
pub(crate) struct Resolved<P> {
    pub distance: u32,
    /// First minimal next hop (`dst` itself for the self-pair).
    pub next_hop: u32,
    pub regime: Regime,
    /// Up to the `k` asked-for minimal paths, lexicographic.
    pub paths: Vec<P>,
}

/// What a query that asks for no path resolves to.
type NoPaths = Resolved<Vec<u32>>;

/// Work lists of one column repair, reused by every faulted column a
/// thread computes. Scratch only: each repair clears what it reads.
#[derive(Default)]
struct RepairScratch {
    /// The pristine level-2 routers.
    level2: Vec<u32>,
    /// Routers of the level being settled that may have lost every
    /// parent, each queued once.
    suspects: Vec<u32>,
    /// Routers that did lose every parent, level 1 first.
    lost: Vec<u32>,
    /// Lost routers by the distance their settled neighbors offer:
    /// 2, 3 and 4.
    seeds: [Vec<u32>; 3],
    frontier: Vec<u32>,
    next: Vec<u32>,
}

/// Per-thread buffers of the faulted paths: the distance column an
/// escalated query reads its answer off (overwritten by the next one on
/// that thread) and the repair work lists.
#[derive(Default)]
struct ColumnScratch {
    dist: Vec<u32>,
    repair: RepairScratch,
}

thread_local! {
    static COLUMN_SCRATCH: RefCell<ColumnScratch> = RefCell::default();
    /// One bit per router id, all clear between queries: the bits of
    /// [`NearDst`], taken out for the length of one query's walks.
    static DST_MARKS: Cell<Vec<u64>> = const { Cell::new(Vec::new()) };
}

/// Largest neighbor count at which a walk answers "within 2 hops of
/// `dst`" by scanning the probed router's neighbor list against
/// [`NearDst`]'s bits rather than by the kernel's 2-hop templates. The
/// scan is one bit test per neighbor up to the first hit, but each list
/// is a fresh cache line or more, while the templates read factor rows
/// that stay cached. Per `k = 4` query with every probe forced one way,
/// the scan is 8–28 % faster at radix 15, level with the templates at
/// radix 20–28, 1–4 % slower at radix 32 and 2.2–2.7× slower at radix 64
/// (EXPERIMENTS.md, "Route serving").
const SCAN_MAX_DEGREE: usize = 24;

/// A query's destination and its pristine neighbors, marked in this
/// thread's [`DST_MARKS`] while its walks run: every "within 1 hop of
/// `dst`" probe of the walks is a bit test, and a "within 2 hops" probe
/// can be a scan of the probed router's neighbor list. Marking and clearing cost
/// O(deg(dst)) a query; the bits are never zeroed in bulk, so they stay
/// cheap at any network size. Dropping clears the marks and hands the
/// bits back, unwinding included, so no query sees another's marks.
struct NearDst<'g> {
    g: &'g Graph,
    dst: u32,
    bits: Vec<u64>,
}

impl<'g> NearDst<'g> {
    fn mark(g: &'g Graph, dst: u32) -> Self {
        let mut bits = DST_MARKS.take();
        let words = g.n().div_ceil(64);
        if bits.len() < words {
            bits.resize(words, 0);
        }
        for &v in g.neighbors(dst).iter().chain([&dst]) {
            bits[v as usize / 64] |= 1 << (v % 64);
        }
        NearDst { g, dst, bits }
    }

    /// Whether `v` is `dst` or one of its neighbors.
    #[inline]
    fn marked(&self, v: u32) -> bool {
        self.bits[v as usize / 64] >> (v % 64) & 1 != 0
    }

    /// Whether `v` is within 2 hops of `dst`: marked itself, or next to
    /// a marked router.
    #[inline]
    fn within_two(&self, v: u32) -> bool {
        self.marked(v) || self.g.neighbors(v).iter().any(|&w| self.marked(w))
    }
}

impl Drop for NearDst<'_> {
    fn drop(&mut self) {
        let dst = self.dst;
        for &v in self.g.neighbors(dst).iter().chain([&dst]) {
            self.bits[v as usize / 64] = 0;
        }
        let bits = std::mem::take(&mut self.bits);
        // Only fails while the thread's locals are torn down, and then
        // the bits are dropped, not kept.
        let _ = DST_MARKS.try_with(|marks| marks.set(bits));
    }
}

/// Set on a suspect's pristine level while it waits in
/// [`RepairScratch::suspects`], so no router is queued twice.
const QUEUED: u32 = 4;

/// Label `out` with the pristine distances to `dst`, handing each
/// level-2 router to `on_level2` once. The diameter-≤3 guarantee (§4;
/// `polarstar`'s `kernel_exhaustive` tests pin the distance kernel to
/// BFS distances on every config up to radix 28) lets a BFS that
/// expands only depths 0 and 1 label the whole column: any router it
/// never reaches sits at distance exactly 3.
/// That is ~deg² work instead of O(E).
fn pristine_levels(g: &Graph, dst: u32, out: &mut Vec<u32>, mut on_level2: impl FnMut(u32)) {
    out.clear();
    out.resize(g.n(), 3);
    out[dst as usize] = 0;
    for &nb in g.neighbors(dst) {
        out[nb as usize] = 1;
    }
    for &nb in g.neighbors(dst) {
        for &nb2 in g.neighbors(nb) {
            if out[nb2 as usize] == 3 {
                out[nb2 as usize] = 2;
                on_level2(nb2);
            }
        }
    }
}

impl AnalyticOracle {
    /// Build the oracle for a network, honoring the static fault mask
    /// its spec already carries.
    pub fn new(net: impl Into<Arc<PolarStarNetwork>>) -> Self {
        let net: Arc<PolarStarNetwork> = net.into();
        let kernel = Arc::new(DistanceKernel::new(&net.view()));
        let faults = net.spec.faults().clone();
        let mask = faults.compile(net.graph());
        AnalyticOracle {
            net,
            kernel,
            faults,
            mask,
        }
    }

    /// The oracle for a new cumulative fault set: clones the shared
    /// network and kernel `Arc`s, swaps the fault set and compiles it —
    /// O(|faults|), no BFS and no bit row copied, the whole per-epoch
    /// cost of the table-free backend.
    pub fn remask(&self, faults: &FaultSet) -> AnalyticOracle {
        AnalyticOracle {
            net: Arc::clone(&self.net),
            kernel: Arc::clone(&self.kernel),
            faults: faults.clone(),
            mask: faults.compile(self.net.graph()),
        }
    }

    /// This oracle, under the name `benchmark/` reads its counters
    /// through (`router().routes_computed()`, `router().fallbacks()`),
    /// kept so those calls compile; the counters are the two below.
    pub fn router(&self) -> &Self {
        self
    }

    /// Routes that fell back to a backstop search: always 0, as every
    /// query walks the exact kernel. `benchmark/` reads it
    /// (`analytic.fallbacks`).
    pub fn fallbacks(&self) -> u64 {
        0
    }

    /// Whole routes materialized ahead of a query: always 0, as paths
    /// are each query's own walk. `benchmark/` reads it
    /// (`analytic.routes_computed`).
    pub fn routes_computed(&self) -> u64 {
        0
    }

    /// The network this oracle answers for.
    pub fn network(&self) -> &Arc<PolarStarNetwork> {
        &self.net
    }

    /// The fault mask this oracle serves.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Resident bytes of the routing state — this struct, the kernel
    /// (its header behind the shared `Arc` and the two factors' bit
    /// rows), f⁻¹, the fault lists and their compiled mask — the
    /// table-free counterpart of `RouteTable::memory_bytes`.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of::<DistanceKernel>()
            + self.kernel.row_bytes()
            + std::mem::size_of_val(self.net.supernode.finv())
            + std::mem::size_of_val(self.faults.failed_links())
            + std::mem::size_of_val(self.faults.failed_routers())
            + self.mask.memory_bytes()
    }

    /// Which regime answers `(src, dst)` under the current mask. Pure:
    /// touches no counter (the self-pair is trivially intact).
    pub fn regime(&self, src: u32, dst: u32) -> Regime {
        let resolved: Result<NoPaths, _> = self.resolve(src, dst, 0, None);
        resolved.map_or(Regime::Unreachable, |r| r.regime)
    }

    fn check(&self, r: u32) -> Result<(), RouteError> {
        let n = self.num_routers() as u32;
        if r >= n {
            return Err(RouteError::OutOfRange { id: r, routers: n });
        }
        Ok(())
    }

    /// Resolve one query: distance, first minimal next hop, up to `k`
    /// lexicographic minimal paths, each made into a `P` from the walk's
    /// router slice as it is found, and — appended to `hops` when given
    /// — every minimal next hop out of `src`. One masked DAG walk at
    /// the pristine distance `d`; if the mask severed that DAG, the
    /// same walk again with a budget of `d + 1`; only if that fails too
    /// (the degraded distance is `d + 2` or more, or infinite), the
    /// destination's repaired distance column.
    pub(crate) fn resolve<P>(
        &self,
        src: u32,
        dst: u32,
        k: usize,
        hops: Option<&mut Vec<u32>>,
    ) -> Result<Resolved<P>, RouteError>
    where
        P: for<'p> From<&'p [u32]>,
    {
        self.check(src)?;
        self.check(dst)?;
        let intact = if self.mask.is_empty() {
            Regime::Pristine
        } else {
            Regime::MinimalDagIntact
        };
        if src == dst {
            return Ok(Resolved {
                distance: 0,
                next_hop: dst,
                regime: intact,
                paths: if k > 0 {
                    vec![P::from(&[src])]
                } else {
                    Vec::new()
                },
            });
        }
        let unreachable = RouteError::Unreachable { src, dst };
        if self.mask.router_dead(src) || self.mask.router_dead(dst) {
            return Err(unreachable);
        }

        let view = self.net.view();
        let pristine = self.kernel.distance(&view, src, dst);
        let near = NearDst::mark(self.network().graph(), dst);
        let mut walk = DagWalk {
            oracle: self,
            view,
            near: &near,
            prefix: [src; 5],
            first_hop: None,
            hops,
            k,
            paths: Vec::new(),
        };
        // A failed walk takes back every path and port it emitted, so
        // the slack walk starts from the same empty state. A live walk
        // always finds a port: an undirected-live edge is usable.
        for (distance, regime) in [(pristine, intact), (pristine + 1, Regime::Escalated)] {
            if let (true, Some(next_hop)) = (walk.descend(0, distance, k > 0), walk.first_hop) {
                #[cfg(debug_assertions)]
                if regime == Regime::Escalated {
                    self.debug_check_slack_walk(src, dst, distance, next_hop);
                }
                return Ok(Resolved {
                    distance,
                    next_hop,
                    regime,
                    paths: walk.paths,
                });
            }
        }

        // Two or more hops longer than pristine, or cut off: distance,
        // ports and paths off the repaired column, by the table's rule
        // and walk.
        let (g, hops) = (self.network().graph(), walk.hops);
        self.with_repaired_column(dst, |col| {
            let distance = match col[src as usize] {
                u32::MAX => return Err(unreachable),
                d => d,
            };
            // A finite degraded distance comes with a live edge toward
            // dst, and a live edge is a usable port.
            let mut ports = column_next_hops(g, col, src, &self.mask).map(|(_, nb)| nb);
            let next_hop = ports.next().ok_or(unreachable)?;
            if let Some(out) = hops {
                out.push(next_hop);
                out.extend(ports);
            }
            let mut paths = Vec::new();
            let hop_from = |r, from| column_next_hops_from(g, col, r, from, &self.mask).next();
            column_k_paths(g, src, dst, distance, k, hop_from, &mut paths);
            Ok(Resolved {
                distance,
                next_hop,
                regime: Regime::Escalated,
                paths,
            })
        })
    }

    /// Run `f` on `dst`'s repaired distance column, computed into this
    /// thread's scratch buffers.
    fn with_repaired_column<R>(&self, dst: u32, f: impl FnOnce(&[u32]) -> R) -> R {
        COLUMN_SCRATCH.with_borrow_mut(|scratch| {
            self.repaired_column_into(dst, &mut scratch.dist, &mut scratch.repair);
            f(&scratch.dist)
        })
    }

    /// Debug builds check every answer of the slack walk against the
    /// repaired column (itself checked against the masked BFS): the
    /// distance, and the first port the column's port rule reads.
    #[cfg(debug_assertions)]
    fn debug_check_slack_walk(&self, src: u32, dst: u32, distance: u32, next_hop: u32) {
        let g = self.network().graph();
        let want = self.with_repaired_column(dst, |col| {
            let port = column_next_hops(g, col, src, &self.mask).next();
            (col[src as usize], port.map(|(_, nb)| nb))
        });
        assert_eq!(
            want,
            (distance, Some(next_hop)),
            "slack walk {src}→{dst} against the repaired column"
        );
    }

    /// Exact distances to `dst` over the degraded product graph, into
    /// `out` (resized and overwritten here): the pristine diameter-3
    /// envelope, repaired where the mask broke it. Both faulted paths
    /// run this — [`PathOracle::distance_column`] and the escalated
    /// query.
    ///
    /// A router keeps its pristine level iff a live edge leads to a
    /// *parent* (a neighbor one level in) that keeps its own. Levels
    /// are settled 1 → 2 → 3, so the lost set of a level is final
    /// before the next one reads it, and the only routers examined are
    /// the suspects: the far end of each dead edge out of a level-0, -1
    /// or -2 router (a failed router's edges are all dead), and the
    /// children of lost routers. The lost routers are then re-settled
    /// breadth-first from the distances their surviving neighbors
    /// offer; nothing else in the column is touched after the
    /// labelling. No step reads the fault list itself, so the cost
    /// follows the damage near `dst`, not the size of the mask.
    fn repaired_column_into(&self, dst: u32, out: &mut Vec<u32>, scratch: &mut RepairScratch) {
        let g = self.network().graph();
        if self.mask.router_dead(dst) {
            out.clear();
            out.resize(g.n(), u32::MAX);
            out[dst as usize] = 0;
        } else {
            scratch.level2.clear();
            pristine_levels(g, dst, out, |v| scratch.level2.push(v));
            self.repair_levels(g, dst, out, scratch);
        }
        #[cfg(debug_assertions)]
        {
            // Debug builds verify every repaired column against the
            // full masked BFS, as the pristine envelope is verified
            // against `bfs_distances`.
            let mut exact = Vec::new();
            polarstar_topo::oracle::masked_distance_column(g, &self.mask, dst, &mut exact);
            for (v, &d) in exact.iter().enumerate() {
                debug_assert_eq!(out[v], d, "repaired distance column {dst}: router {v}");
            }
        }
    }

    /// The repair proper: `out` holds the pristine levels to a live
    /// `dst` on entry, the degraded distances on return.
    fn repair_levels(&self, g: &Graph, dst: u32, out: &mut [u32], scratch: &mut RepairScratch) {
        let RepairScratch {
            level2,
            suspects,
            lost,
            seeds,
            frontier,
            next,
        } = scratch;
        let live_neighbors = |v: u32| {
            let slots = self.mask.live(g.edge_range(v));
            slots.map(|e| g.edge_target(e))
        };

        // Level 1 hangs off dst by one edge each.
        lost.clear();
        for (e, &v) in g.edge_range(dst).zip(g.neighbors(dst)) {
            if self.mask.edge_dead(e) {
                out[v as usize] = u32::MAX;
                lost.push(v);
            }
        }
        // Levels 2 and 3. The suspects are the far ends of the dead
        // edges out of the level above and of every edge out of its
        // lost routers; each looks for a live edge to a parent still
        // on its level.
        let mut parents_lost = 0;
        for (l, parents) in [(2, g.neighbors(dst)), (3, &level2[..])] {
            suspects.clear();
            let mut suspect = |child: u32| {
                if out[child as usize] == l {
                    out[child as usize] = l | QUEUED;
                    suspects.push(child);
                }
            };
            for &p in parents {
                let dead = self.mask.dead(g.edge_range(p));
                dead.for_each(|e| suspect(g.edge_target(e)));
            }
            for &p in &lost[parents_lost..] {
                g.neighbors(p).iter().for_each(|&child| suspect(child));
            }
            parents_lost = lost.len();
            for &v in suspects.iter() {
                if live_neighbors(v).any(|p| out[p as usize] == l - 1) {
                    out[v as usize] = l;
                } else {
                    out[v as usize] = u32::MAX;
                    lost.push(v);
                }
            }
        }
        if lost.is_empty() {
            return;
        }

        // Every lost router reads u32::MAX by now, so a finite neighbor
        // is a settled one. A lost router's nearest sits at 1, 2 or 3
        // and offers it one more: `seeds[i]` holds distance i + 2.
        seeds.iter_mut().for_each(Vec::clear);
        for &v in lost.iter() {
            let settled = live_neighbors(v).map(|nb| out[nb as usize]);
            if let Some(nearest) = settled.min().filter(|&d| d != u32::MAX) {
                seeds[nearest as usize - 1].push(v);
            }
        }
        // Breadth-first over the lost routers alone: distance d is
        // reached from a settled neighbor (a seed) or from a lost
        // router re-settled at d − 1. Failed routers have no live slot
        // and stay unreachable, as does whatever the mask cut off.
        frontier.clear();
        let mut d = 2;
        loop {
            if let Some(seeds) = seeds.get(d as usize - 2) {
                for &v in seeds {
                    if out[v as usize] == u32::MAX {
                        out[v as usize] = d;
                        frontier.push(v);
                    }
                }
            } else if frontier.is_empty() {
                return;
            }
            next.clear();
            for &v in frontier.iter() {
                for nb in live_neighbors(v) {
                    if out[nb as usize] == u32::MAX {
                        out[nb as usize] = d + 1;
                        next.push(nb);
                    }
                }
            }
            std::mem::swap(frontier, next);
            d += 1;
        }
    }
}

/// One query's depth-first walk toward `dst`, masked by the oracle's
/// faults, over the routers whose pristine distance fits the hops left:
/// the pristine-minimal DAG when the budget is the pristine distance,
/// that DAG plus one hop of slack when it is one more. Each path found
/// is made into a `P` from the prefix in place.
struct DagWalk<'a, P> {
    oracle: &'a AnalyticOracle,
    /// The network's star product, which every kernel probe reads.
    view: StarProduct<'a>,
    /// `dst` and its neighbors, which answer most probes.
    near: &'a NearDst<'a>,
    /// Routers of the path being extended, `[src, …]`; a
    /// pristine-minimal path holds at most 4, one with a hop of slack 5.
    prefix: [u32; 5],
    /// First live minimal port out of `src`.
    first_hop: Option<u32>,
    /// Collects every live minimal port out of `src`, when asked for.
    hops: Option<&'a mut Vec<u32>>,
    /// Paths asked for, and the ones found so far.
    k: usize,
    paths: Vec<P>,
}

impl<P> DagWalk<'_, P>
where
    P: for<'p> From<&'p [u32]>,
{
    /// Scan `v = prefix[depth]` once, with `r` hops left to `dst`.
    /// Returns whether a live walk of exactly `r` hops leads from `v`
    /// to `dst` through routers whose pristine distance fits the hops
    /// left, each hop over an undirected-live edge. The pristine
    /// distance bounds the degraded one from below, so that holds iff
    /// `v`'s degraded distance is `r` whenever it is at least `r`. It
    /// is at least `r` for `src` at the pristine distance, for `src` at
    /// one more once that walk failed, and for every router the walk
    /// enters from a router of degraded distance `r + 1`: over a live
    /// edge the distance drops by one at most, and behind a one-way
    /// fault the guard below rules out the one level it could skip.
    /// With `emit`, live minimal paths through `v` are appended (up to
    /// `k` in all); they and the ports reported for `src` are taken
    /// back if `v` turns out cut off, since a directed-usable port
    /// alone does not hold the distance.
    /// Whether `nb`'s pristine distance to `dst` is at most `h`, as
    /// [`DistanceKernel::within`] says: one bit test at `h = 1`, and at
    /// `h = 2` a scan of `nb`'s neighbor list where it has at most
    /// [`SCAN_MAX_DEGREE`] entries. The kernel answers the rest, and
    /// debug builds check every answer of the bits against it.
    #[inline]
    fn within(&self, nb: u32, h: u32) -> bool {
        let near = self.near;
        let by_bits = match h {
            1 => near.marked(nb),
            2 if near.g.degree(nb) <= SCAN_MAX_DEGREE => near.within_two(nb),
            _ => return self.oracle.kernel.within(&self.view, nb, near.dst, h),
        };
        debug_assert_eq!(
            by_bits,
            self.oracle.kernel.within(&self.view, nb, near.dst, h),
            "within({nb}, {}, {h}) by the destination's marks",
            near.dst
        );
        by_bits
    }

    fn descend(&mut self, depth: usize, r: u32, emit: bool) -> bool {
        if r == 0 {
            if emit {
                self.paths.push(P::from(&self.prefix[..=depth]));
            }
            return true;
        }
        let oracle = self.oracle;
        let g = oracle.network().graph();
        let v = self.prefix[depth];
        // One hop out, the only continuation is dst itself.
        let slots = if r == 1 {
            let Some(e) = g.edge_id(v, self.near.dst) else {
                return false;
            };
            e..e + 1
        } else {
            g.edge_range(v)
        };
        let mark = (self.paths.len(), self.hops.as_ref().map_or(0, |h| h.len()));
        let mut alive = false;
        for e in slots {
            let nb = g.edge_target(e);
            let wanted = (emit && self.paths.len() < self.k) || (depth == 0 && self.hops.is_some());
            if alive && !wanted {
                break;
            }
            // `nb` continues a walk iff its pristine distance fits the
            // r − 1 hops left. (With slack, dst itself passes at r = 2
            // and fails one level down: it has no edge to itself.)
            if r > 1 && !self.within(nb, r - 1) {
                continue;
            }
            let edge_alive = !oracle.mask.edge_dead(e);
            // The table's directed port rule.
            let usable = !oracle.mask.link_dead(e);
            if !edge_alive && !usable {
                // Neither keeps v alive nor is a port.
                continue;
            }
            self.prefix[depth + 1] = nb;
            // A one-way fault: usable, but out of the distance relation,
            // so nothing ties nb's degraded distance to v's. With slack
            // it may sit at r − 2, and then nb is no minimal next hop
            // (the table's rule is col[nb] + 1 == col[v]) even if a
            // longer walk from it exists. Symmetric masks never get here.
            if !edge_alive
                && r > 1
                && self.within(nb, r - 2)
                && self.descend(depth + 1, r - 2, false)
            {
                continue;
            }
            let emit_below = emit && usable && self.paths.len() < self.k;
            if !self.descend(depth + 1, r - 1, emit_below) {
                continue;
            }
            alive |= edge_alive;
            if usable && depth == 0 {
                self.first_hop.get_or_insert(nb);
                if let Some(out) = self.hops.as_deref_mut() {
                    out.push(nb);
                }
            }
        }
        if !alive {
            self.paths.truncate(mark.0);
            if let Some(out) = self.hops.as_deref_mut() {
                out.truncate(mark.1);
            }
            if depth == 0 {
                self.first_hop = None;
            }
        }
        alive
    }
}

impl PathOracle for AnalyticOracle {
    fn num_routers(&self) -> usize {
        self.network().spec.routers()
    }

    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        let resolved: NoPaths = self.resolve(src, dst, 0, None)?;
        Ok(resolved.distance)
    }

    /// Pristine neighbor order is ascending router id — the same port
    /// order `RouteTable` reads its ports in, so the sets match verbatim.
    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
        let resolved: Result<NoPaths, _> = self.resolve(src, dst, 0, Some(out));
        resolved.map(|_| ())
    }

    fn next_hop(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        let resolved: NoPaths = self.resolve(src, dst, 0, None)?;
        Ok(resolved.next_hop)
    }

    /// The same walk as the route service's answers, each path
    /// collected into a `Vec` of its own.
    fn k_paths(&self, src: u32, dst: u32, k: usize) -> Result<Vec<Vec<u32>>, RouteError> {
        Ok(self.resolve(src, dst, k, None)?.paths)
    }

    /// Bulk per-destination distances for the class-batched flow build.
    ///
    /// Pristine columns are the diameter-≤3 envelope of
    /// `pristine_levels`: ~deg² work per destination instead of O(E),
    /// which is what turns per-flow template queries into
    /// per-destination array scans. Faulted columns repair that
    /// envelope where the mask broke it — the column the per-query
    /// escalation path reads, so it equals per-query
    /// [`AnalyticOracle::distance`] answers in every epoch. Ports are
    /// read under the epoch's compiled mask.
    fn distance_column(&self, dst: u32, out: &mut Vec<u32>) -> Option<&FaultMask> {
        let g = self.network().graph();
        let n = g.n();
        if dst as usize >= n {
            // Per-query answers are OutOfRange errors; the column
            // equivalent is an all-unreachable destination.
            out.clear();
            out.resize(n, u32::MAX);
            return Some(&self.mask);
        }
        if !self.mask.is_empty() {
            COLUMN_SCRATCH.with_borrow_mut(|scratch| {
                self.repaired_column_into(dst, out, &mut scratch.repair)
            });
            return Some(&self.mask);
        }
        pristine_levels(g, dst, out, |_| ());
        #[cfg(debug_assertions)]
        {
            // Debug builds verify the diameter-≤3 shortcut against the
            // full BFS, column by column — `cargo test` exercises every
            // column the flow build asks for.
            let exact = polarstar_graph::traversal::bfs_distances(g, dst);
            for (v, &d) in exact.iter().enumerate() {
                debug_assert_eq!(
                    out[v], d,
                    "pristine distance column {dst}: router {v} off the \
                     diameter-3 envelope"
                );
            }
        }
        Some(&self.mask)
    }

    /// The first lexicographic minimal path, read off one resolve (one
    /// masked DAG walk, or the repaired column when escalated) instead
    /// of a min-next-hop query per hop.
    fn path(&self, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
        let resolved: Resolved<Vec<u32>> = self.resolve(src, dst, 1, None)?;
        let first = resolved.paths.into_iter().next();
        first.ok_or(RouteError::Unreachable { src, dst })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar::design::{best_config, PolarStarConfig, SupernodeKind};

    fn small_net() -> PolarStarNetwork {
        let cfg = PolarStarConfig {
            q: 3,
            supernode: SupernodeKind::InductiveQuad { degree: 3 },
        };
        PolarStarNetwork::build(cfg, 1).unwrap()
    }

    #[test]
    fn pristine_answers_are_minimal_and_o1() {
        let net = small_net();
        let o = AnalyticOracle::new(net.clone());
        let n = o.num_routers() as u32;
        for s in 0..n {
            for t in 0..n {
                let d = o.distance(s, t).unwrap();
                assert!(d <= 3, "{s}→{t}");
                let p = o.path(s, t).unwrap();
                assert_eq!(p.len() as u32, d + 1);
                assert_eq!((p[0], *p.last().unwrap()), (s, t));
                for w in p.windows(2) {
                    assert!(net.graph().has_edge(w[0], w[1]));
                }
            }
        }
    }

    #[test]
    fn route_storage_is_factor_sized() {
        // The paper's §9.3 point: analytic routing needs factor-graph
        // state, not per-destination tables. A pristine oracle holds the
        // two factors' bit rows and f⁻¹ behind its own struct and the
        // kernel's; no structure pair stores a middle, and there is no
        // fault list or mask.
        for (d, want) in [(15, 3_504), (32, 40_248)] {
            let net = PolarStarNetwork::build(best_config(d).unwrap(), 1).unwrap();
            let (n_s, n_l) = (net.er.order(), net.supernode.order());
            let oracle = AnalyticOracle::new(net);
            let rows = n_s * n_s.div_ceil(64) + n_l * n_l.div_ceil(64);
            let structs =
                std::mem::size_of::<AnalyticOracle>() + std::mem::size_of::<DistanceKernel>();
            assert_eq!(
                oracle.memory_bytes(),
                structs + 8 * rows + 4 * n_l,
                "radix {d}"
            );
            assert_eq!(oracle.memory_bytes(), want, "radix {d}");
        }
    }

    #[test]
    fn remask_is_arc_shallow_and_masks() {
        let o = AnalyticOracle::new(small_net());
        // Sever every minimal continuation of some edge and check the
        // distance grows while the base oracle is untouched.
        let cut = FaultSet::from_links([(0, 1)]);
        let masked = o.remask(&cut);
        assert!(Arc::ptr_eq(&o.net, &masked.net), "network shared");
        assert!(Arc::ptr_eq(&o.kernel, &masked.kernel), "kernel shared");
        if o.network().graph().has_edge(0, 1) {
            assert_eq!(o.distance(0, 1), Ok(1));
            assert!(masked.distance(0, 1).unwrap() > 1);
        }
        // Router failure seals the router off.
        let dead = o.remask(&FaultSet::from_routers([2]));
        assert_eq!(dead.distance(2, 2), Ok(0));
        assert!(dead.distance(2, 0).is_err());
        assert!(dead.distance(0, 2).is_err());
    }

    #[test]
    fn regimes_name_the_answering_path() {
        let o = AnalyticOracle::new(small_net());
        let nb = o.network().graph().neighbors(0)[0];
        assert_eq!(o.regime(0, nb), Regime::Pristine);
        assert_eq!(o.regime(0, 0), Regime::Pristine);
        let n = o.num_routers() as u32;
        assert_eq!(o.regime(0, n), Regime::Unreachable);

        // Cutting the edge severs the one-hop DAG of its endpoints only.
        let cut = o.remask(&FaultSet::from_links([(0, nb)]));
        assert_eq!(cut.regime(0, nb), Regime::Escalated);
        assert_eq!(cut.regime(nb, 0), Regime::Escalated);
        assert_eq!(cut.regime(0, 0), Regime::MinimalDagIntact);
        let other = o.network().graph().neighbors(0)[1];
        assert_eq!(cut.regime(0, other), Regime::MinimalDagIntact);
        assert_eq!(cut.distance(0, other), Ok(1));

        let dead = o.remask(&FaultSet::from_routers([nb]));
        assert_eq!(dead.regime(0, nb), Regime::Unreachable);

        // Every destination answers, pristine and across the cut.
        for dst in 0..n {
            cut.distance(0, dst).unwrap();
            cut.next_hop(0, dst).unwrap();
            cut.k_paths(0, dst, 4).unwrap();
            o.k_paths(0, dst, 4).unwrap();
            o.path(0, dst).unwrap();
        }
    }

    #[test]
    fn a_fault_set_that_fails_nothing_is_pristine() {
        let o = AnalyticOracle::new(small_net());
        let g = o.network().graph();
        let n = o.num_routers() as u32;
        let non_edge = (1..n).find(|&v| !g.has_edge(0, v)).unwrap();
        let stray = FaultSet::from_links([(0, non_edge), (n, n + 1)])
            .union(&FaultSet::from_routers([n + 3]));
        let masked = o.remask(&stray);
        assert!(!masked.faults().is_empty());
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for dst in 0..n {
            assert_eq!(masked.regime(0, dst), Regime::Pristine, "0→{dst}");
            o.distance_column(dst, &mut want);
            masked.distance_column(dst, &mut got);
            assert_eq!(got, want, "column {dst}");
        }
    }

    #[test]
    fn distance_column_matches_per_query_answers() {
        let net = small_net();
        let o = AnalyticOracle::new(net.clone());
        let n = o.num_routers() as u32;
        let check = |o: &AnalyticOracle| {
            let mut col = Vec::new();
            for dst in 0..n {
                assert!(o.distance_column(dst, &mut col).is_some());
                assert_eq!(col.len(), n as usize);
                for v in 0..n {
                    let expect = o.distance(v, dst).unwrap_or(u32::MAX);
                    assert_eq!(col[v as usize], expect, "col[{v}] for dst {dst}");
                }
            }
        };
        check(&o);
        // Faulted columns take the degraded-BFS path; a router failure
        // must read back as an all-MAX column (except the self entry).
        let masked = o.remask(&FaultSet::from_links([(0, 1), (2, 5)]));
        check(&masked);
        let dead = o.remask(&FaultSet::from_routers([3]));
        check(&dead);
        // Out-of-range destinations answer all-unreachable, mirroring
        // the typed per-query error.
        let mut col = Vec::new();
        assert!(o.distance_column(n, &mut col).is_some());
        assert!(col.iter().all(|&d| d == u32::MAX));
    }

    #[test]
    fn link_usable_mirrors_the_directed_port_rule() {
        let o = AnalyticOracle::new(small_net());
        let g = o.network().graph().clone();
        let (a, b) = (g.neighbors(0)[0], g.neighbors(2)[0]);
        // Whether the column mask lets `u → v` carry traffic.
        let usable = |o: &AnalyticOracle, u, v| {
            let mask = o.distance_column(0, &mut Vec::new()).unwrap();
            !mask.link_dead(g.edge_id(u, v).unwrap())
        };
        assert!(usable(&o, 0, a));
        let masked = o.remask(&FaultSet::from_directed_links([(0, a)]));
        assert!(!usable(&masked, 0, a));
        assert!(usable(&masked, a, 0), "reverse direction stays up");
        let dead = o.remask(&FaultSet::from_routers([2]));
        assert!(!usable(&dead, 2, b));
        assert!(!usable(&dead, b, 2));
    }

    #[test]
    fn out_of_range_is_typed() {
        let o = AnalyticOracle::new(small_net());
        let n = o.num_routers() as u32;
        assert_eq!(
            o.distance(n, 0),
            Err(RouteError::OutOfRange { id: n, routers: n })
        );
        assert!(o.path(0, n).is_err());
    }
}
