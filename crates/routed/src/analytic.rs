//! Table-free serving backend: the §9.2 analytic router as a
//! [`PathOracle`].
//!
//! A [`RouteTable`](polarstar_netsim::RouteTable) answers queries from a
//! per-destination arena that costs O(n²) bytes to hold and one BFS per
//! destination to rebuild on every fault epoch. The analytic backend
//! keeps only factor-graph state (the [`AnalyticRouter`]'s flat middle
//! lists and bijection) plus the current [`FaultSet`], and resolves each
//! query once, in one of three [`Regime`]s:
//!
//! * **pristine** (no faults): the distance is one probe of the
//!   router's allocation-free distance kernel; the minimal next hops of
//!   a router `r` hops out are its neighbors the kernel puts `r − 1`
//!   hops out. The ≤ 3 levels of that *pristine-minimal DAG* are walked
//!   depth-first, in ascending port order, only as deep and as wide as
//!   the query asks (first hop, all first hops, or `k` paths).
//! * **faulted, minimal DAG intact**: the same single walk, with every
//!   edge tested against the mask. A router keeps its pristine distance
//!   iff an undirected-live edge leads to a neighbor that keeps its
//!   own; each visited router learns that from one scan of its neighbor
//!   list, which also emits its paths (rolled back should the scan end
//!   without a live edge). Every degraded path of pristine-minimal
//!   length lies on this DAG, so a walk that finds the source alive has
//!   the exact degraded distance, ports and paths.
//! * **faulted, minimal DAG severed (escalated)**: the walk proved the
//!   degraded distance exceeds the pristine one. The query runs exactly
//!   one BFS over the degraded product graph from the destination and
//!   reads distance, ports and paths off that one distance column.
//!
//! What is kept per query: the ≤ 4 routers of the path being extended
//! and one survivability flag per level of the recursion — fixed stack
//! state. Nothing more is needed for a single pass: the only neighbor
//! lists a query scans are the source's and, three hops out, those of
//! its level-2 neighbors, each exactly once (a level-1 router costs one
//! edge probe), and every scan yields survivability and paths
//! together. The only heap allocations of the first two regimes are
//! the answer's own vectors. The BFS of the third borrows a
//! thread-local distance column and queue, overwritten by the next
//! escalated query on that thread.
//!
//! Nothing is kept per epoch or per oracle — no template cache, no
//! distance table. The fault mask is the *only* per-epoch state, so an
//! epoch switch is an `Arc` clone plus a `FaultSet` swap, no BFS sweep:
//! that is what collapses the ~196 ms `RouteTable::remask`
//! epoch-install cost (BENCH_routed.json) to microseconds, and what
//! keeps the backend's memory at the router's factor-graph state. A
//! per-epoch table of answers would trade both away — it is the thing
//! this backend exists to show is unnecessary.
//!
//! Equivalence contract (pinned by `tests/analytic_vs_table.rs`):
//! distances, the full ascending minimal next-hop sets, first next hops
//! and lexicographic `k_paths` equal a freshly masked `RouteTable`'s —
//! and the trait-provided generic walks over this oracle — on every
//! config and fault mask. [`PathOracle::path`] is overridden on the
//! pristine path to return the template route in one shot (it is still
//! minimal and deterministic, but may pick a different tie among
//! equally minimal paths than the first-next-hop walk that
//! [`PathOracle::k_paths`] enumerates).

use polarstar::network::PolarStarNetwork;
use polarstar::routing::AnalyticRouter;
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::{PathOracle, RouteError};
use std::cell::RefCell;
use std::sync::Arc;

/// A table-free [`PathOracle`] over a PolarStar network: §9.2 analytic
/// routing plus a fault mask.
///
/// Cloning is O(1) (the router is shared behind an [`Arc`]); so is
/// [`AnalyticOracle::remask`], which makes fault epochs nearly free.
#[derive(Clone)]
pub struct AnalyticOracle {
    router: Arc<AnalyticRouter>,
    faults: FaultSet,
}

/// How the analytic backend resolved (or would resolve) one query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Regime {
    /// No faults in the mask: kernel probes only.
    Pristine,
    /// Faulted, but a pristine-minimal path survives: the pristine
    /// distance holds and one masked DAG walk answers.
    MinimalDagIntact,
    /// Every pristine-minimal path is cut: one degraded-graph BFS found
    /// a longer route.
    Escalated,
    /// No answer: an id out of range, a failed endpoint, or no
    /// surviving path at all.
    Unreachable,
}

/// One resolved query.
pub(crate) struct Resolved {
    pub distance: u32,
    /// First minimal next hop (`dst` itself for the self-pair).
    pub next_hop: u32,
    pub regime: Regime,
    /// Up to the `k` asked-for minimal paths, lexicographic.
    pub paths: Vec<Vec<u32>>,
}

/// BFS buffers of the escalation path, reused by every query a thread
/// answers. Scratch only: each BFS overwrites them.
#[derive(Default)]
struct BfsScratch {
    dist: Vec<u32>,
    queue: Vec<u32>,
}

thread_local! {
    static BFS_SCRATCH: RefCell<BfsScratch> = RefCell::default();
}

impl AnalyticOracle {
    /// Build the oracle for a network, honoring the static fault mask
    /// its spec already carries.
    pub fn new(net: impl Into<Arc<PolarStarNetwork>>) -> Self {
        Self::from_router(Arc::new(AnalyticRouter::new(net)))
    }

    /// Wrap an already-built router (shares its middle lists).
    pub fn from_router(router: Arc<AnalyticRouter>) -> Self {
        let faults = router.network().spec.faults().clone();
        AnalyticOracle { router, faults }
    }

    /// The oracle for a new cumulative fault set. O(1): clones the
    /// shared router `Arc` and swaps the mask — the whole per-epoch
    /// cost of the table-free backend.
    pub fn remask(&self, faults: &FaultSet) -> AnalyticOracle {
        AnalyticOracle {
            router: Arc::clone(&self.router),
            faults: faults.clone(),
        }
    }

    /// The underlying analytic router (fallback counters live there).
    pub fn router(&self) -> &AnalyticRouter {
        &self.router
    }

    /// The network this oracle answers for.
    pub fn network(&self) -> &Arc<PolarStarNetwork> {
        self.router.network()
    }

    /// The fault mask this oracle serves.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Resident bytes of the routing state (factor-graph middles + the
    /// fault mask) — the table-free counterpart of
    /// `RouteTable::memory_bytes`.
    pub fn memory_bytes(&self) -> usize {
        self.router.memory_bytes()
            + std::mem::size_of_val(self.faults.failed_links())
            + std::mem::size_of_val(self.faults.failed_routers())
    }

    /// Which regime answers `(src, dst)` under the current mask. Pure:
    /// touches no counter (the self-pair is trivially intact).
    pub fn regime(&self, src: u32, dst: u32) -> Regime {
        self.resolve(src, dst, 0, None)
            .map_or(Regime::Unreachable, |r| r.regime)
    }

    fn check(&self, r: u32) -> Result<(), RouteError> {
        let n = self.num_routers() as u32;
        if r >= n {
            return Err(RouteError::OutOfRange { id: r, routers: n });
        }
        Ok(())
    }

    /// Resolve one query in a single pass: distance, first minimal next
    /// hop, up to `k` lexicographic minimal paths, and — appended to
    /// `hops` when given — every minimal next hop out of `src`. At most
    /// one BFS, and only when the mask severed the pristine-minimal DAG.
    pub(crate) fn resolve(
        &self,
        src: u32,
        dst: u32,
        k: usize,
        hops: Option<&mut Vec<u32>>,
    ) -> Result<Resolved, RouteError> {
        self.check(src)?;
        self.check(dst)?;
        let intact = if self.faults.is_empty() {
            Regime::Pristine
        } else {
            Regime::MinimalDagIntact
        };
        if src == dst {
            return Ok(Resolved {
                distance: 0,
                next_hop: dst,
                regime: intact,
                paths: if k > 0 { vec![vec![src]] } else { Vec::new() },
            });
        }
        let unreachable = RouteError::Unreachable { src, dst };
        if self.faults.router_failed(src) || self.faults.router_failed(dst) {
            return Err(unreachable);
        }

        let distance = self.router.distance(src, dst);
        let mut walk = DagWalk {
            oracle: self,
            dst,
            prefix: [src; 4],
            first_hop: None,
            hops,
            k,
            paths: Vec::new(),
        };
        if let (true, Some(next_hop)) = (walk.descend(0, distance, k > 0), walk.first_hop) {
            return Ok(Resolved {
                distance,
                next_hop,
                regime: intact,
                paths: walk.paths,
            });
        }

        // Severed (the walk took back whatever hung off dead edges).
        let hops = walk.hops;
        BFS_SCRATCH.with_borrow_mut(|scratch| {
            self.degraded_distances_into(dst, &mut scratch.dist, &mut scratch.queue);
            let degraded = DegradedColumn {
                oracle: self,
                dst,
                dist: &scratch.dist,
            };
            let distance = degraded.distance(src, dst)?;
            // A finite degraded distance comes with a live edge toward
            // dst, and a live edge is a usable port.
            let mut ports = degraded.ports(src);
            let next_hop = ports.next().ok_or(unreachable)?;
            if let Some(out) = hops {
                out.push(next_hop);
                out.extend(ports);
            }
            Ok(Resolved {
                distance,
                next_hop,
                regime: Regime::Escalated,
                paths: degraded.k_paths(src, dst, k)?,
            })
        })
    }

    /// Exact BFS distances to `dst` over the degraded product graph,
    /// into caller buffers (resized and reset here) — the escalation
    /// path of queries whose minimal DAG the mask severed, and the
    /// faulted [`PathOracle::distance_column`].
    fn degraded_distances_into(&self, dst: u32, dist: &mut Vec<u32>, queue: &mut Vec<u32>) {
        let g = self.network().graph();
        dist.clear();
        dist.resize(g.n(), u32::MAX);
        queue.clear();
        dist[dst as usize] = 0;
        queue.push(dst);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            let dv = dist[v as usize];
            for &nb in g.neighbors(v) {
                if dist[nb as usize] != u32::MAX || self.faults.edge_failed(v, nb) {
                    continue;
                }
                dist[nb as usize] = dv + 1;
                queue.push(nb);
            }
        }
    }
}

/// One query's depth-first walk over the pristine-minimal DAG toward
/// `dst`, masked by the oracle's faults.
struct DagWalk<'a> {
    oracle: &'a AnalyticOracle,
    dst: u32,
    /// Routers of the path being extended, `[src, …]`; a
    /// pristine-minimal path holds at most 4.
    prefix: [u32; 4],
    /// First live minimal port out of `src`.
    first_hop: Option<u32>,
    /// Collects every live minimal port out of `src`, when asked for.
    hops: Option<&'a mut Vec<u32>>,
    /// Paths asked for, and the ones found so far.
    k: usize,
    paths: Vec<Vec<u32>>,
}

impl DagWalk<'_> {
    /// Scan `v = prefix[depth]`, `r` pristine hops from `dst`, once.
    /// Returns whether `v` keeps distance `r` under the mask, i.e. an
    /// undirected-live edge leads to a neighbor that keeps `r − 1`.
    /// With `emit`, live minimal paths through `v` are appended (up to
    /// `k` in all); they and the ports reported for `src` are taken
    /// back if `v` turns out cut off, since a directed-usable port
    /// alone does not hold the distance.
    fn descend(&mut self, depth: usize, r: u32, emit: bool) -> bool {
        if r == 0 {
            if emit {
                self.paths.push(self.prefix[..=depth].to_vec());
            }
            return true;
        }
        let oracle = self.oracle;
        let v = self.prefix[depth];
        // One hop out, the only continuation is dst itself.
        let last = [self.dst];
        let candidates = if r == 1 {
            &last[..]
        } else {
            oracle.network().graph().neighbors(v)
        };
        let mark = (self.paths.len(), self.hops.as_ref().map_or(0, |h| h.len()));
        let mut alive = false;
        for &nb in candidates {
            let wanted = (emit && self.paths.len() < self.k) || (depth == 0 && self.hops.is_some());
            if alive && !wanted {
                break;
            }
            if r > 1 && oracle.router.distance(nb, self.dst) + 1 != r {
                continue;
            }
            let edge_alive = !oracle.faults.edge_failed(v, nb);
            // The table's directed port rule.
            let usable = edge_alive || !oracle.faults.link_failed(v, nb);
            self.prefix[depth + 1] = nb;
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
        }
        alive
    }
}

/// One destination's degraded distance column, served as a
/// [`PathOracle`] so the escalated regime reads its `k_paths` off the
/// trait's generic walk. Answers queries toward `dst` only.
struct DegradedColumn<'a> {
    oracle: &'a AnalyticOracle,
    dst: u32,
    dist: &'a [u32],
}

impl DegradedColumn<'_> {
    /// Live minimal ports of `v` toward `dst`, ascending: the masked
    /// table's rule read off the column.
    fn ports(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let dv = self.dist[v as usize];
        let nbrs = self.oracle.network().graph().neighbors(v);
        nbrs.iter().copied().filter(move |&nb| {
            let dn = self.dist[nb as usize];
            dn != u32::MAX && dn + 1 == dv && !self.oracle.faults.link_failed(v, nb)
        })
    }
}

impl PathOracle for DegradedColumn<'_> {
    fn num_routers(&self) -> usize {
        self.dist.len()
    }

    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        debug_assert_eq!(dst, self.dst, "column of another destination");
        match self.dist[src as usize] {
            u32::MAX => Err(RouteError::Unreachable { src, dst }),
            d => Ok(d),
        }
    }

    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
        self.distance(src, dst)?;
        out.extend(self.ports(src));
        Ok(())
    }
}

impl PathOracle for AnalyticOracle {
    fn num_routers(&self) -> usize {
        self.network().spec.routers()
    }

    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        Ok(self.resolve(src, dst, 0, None)?.distance)
    }

    /// Pristine neighbor order is ascending router id — the same port
    /// order `RouteTable` stores, so the sets match verbatim.
    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
        self.resolve(src, dst, 0, Some(out)).map(|_| ())
    }

    fn next_hop(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        Ok(self.resolve(src, dst, 0, None)?.next_hop)
    }

    fn k_paths(&self, src: u32, dst: u32, k: usize) -> Result<Vec<Vec<u32>>, RouteError> {
        Ok(self.resolve(src, dst, k, None)?.paths)
    }

    /// Bulk per-destination distances for the class-batched flow build.
    ///
    /// Pristine columns exploit the diameter-≤3 guarantee (§4; the
    /// routing tests pin the distance kernel to BFS distances on every
    /// config): a BFS that expands only depths 0 and 1 labels the
    /// whole column, because any router it never reaches sits at
    /// distance exactly 3. That is ~deg² work per destination instead
    /// of O(E), which is what turns per-flow template queries into
    /// per-destination array scans. Faulted columns run the exact
    /// degraded-graph BFS the per-query escalation path uses, so the
    /// column equals per-query [`AnalyticOracle::distance`] answers in
    /// every epoch.
    fn distance_column(&self, dst: u32, out: &mut Vec<u32>) -> bool {
        let g = self.network().graph();
        let n = g.n();
        if dst as usize >= n {
            // Per-query answers are OutOfRange errors; the column
            // equivalent is an all-unreachable destination.
            out.clear();
            out.resize(n, u32::MAX);
            return true;
        }
        if !self.faults.is_empty() {
            BFS_SCRATCH.with_borrow_mut(|scratch| {
                self.degraded_distances_into(dst, out, &mut scratch.queue)
            });
            return true;
        }
        out.clear();
        out.resize(n, 3);
        out[dst as usize] = 0;
        for &nb in g.neighbors(dst) {
            out[nb as usize] = 1;
        }
        for &nb in g.neighbors(dst) {
            for &nb2 in g.neighbors(nb) {
                if out[nb2 as usize] == 3 {
                    out[nb2 as usize] = 2;
                }
            }
        }
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
        true
    }

    /// The masked table's directed port rule: a link carries traffic
    /// unless this epoch failed it (or either endpoint router).
    fn link_usable(&self, u: u32, v: u32) -> bool {
        !self.faults.link_failed(u, v)
    }

    /// Pristine queries answer with the §9.2 template path directly —
    /// one template search instead of a min-next-hop scan per hop,
    /// which is what lets the flow simulator route a million flows
    /// without a table. Faulted queries return the first lexicographic
    /// minimal path (the first-next-hop walk), so the masked-table
    /// semantics hold exactly.
    fn path(&self, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
        if self.faults.is_empty() {
            self.check(src)?;
            self.check(dst)?;
            let mut path = vec![src];
            path.extend(self.router.route(src, dst));
            return Ok(path);
        }
        let first = self.resolve(src, dst, 1, None)?.paths.into_iter().next();
        first.ok_or(RouteError::Unreachable { src, dst })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar::design::{PolarStarConfig, SupernodeKind};

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
    fn remask_is_arc_shallow_and_masks() {
        let o = AnalyticOracle::new(small_net());
        // Sever every minimal continuation of some edge and check the
        // distance grows while the base oracle is untouched.
        let cut = FaultSet::from_links([(0, 1)]);
        let masked = o.remask(&cut);
        assert!(Arc::ptr_eq(&o.router, &masked.router), "router shared");
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
    fn regimes_name_the_answering_path_and_count_no_routes() {
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

        // Serving answers never materializes a template route.
        for dst in 0..n {
            cut.distance(0, dst).unwrap();
            cut.next_hop(0, dst).unwrap();
            cut.k_paths(0, dst, 4).unwrap();
            o.k_paths(0, dst, 4).unwrap();
        }
        assert_eq!(o.router().routes_computed(), 0);
        o.path(0, nb).unwrap();
        assert_eq!(o.router().routes_computed(), 1);
    }

    #[test]
    fn distance_column_matches_per_query_answers() {
        let net = small_net();
        let o = AnalyticOracle::new(net.clone());
        let n = o.num_routers() as u32;
        let check = |o: &AnalyticOracle| {
            let mut col = Vec::new();
            for dst in 0..n {
                assert!(o.distance_column(dst, &mut col));
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
        assert!(o.distance_column(n, &mut col));
        assert!(col.iter().all(|&d| d == u32::MAX));
    }

    #[test]
    fn link_usable_mirrors_the_directed_port_rule() {
        let o = AnalyticOracle::new(small_net());
        assert!(o.link_usable(0, 1));
        let masked = o.remask(&FaultSet::from_directed_links([(0, 1)]));
        assert!(!masked.link_usable(0, 1));
        assert!(masked.link_usable(1, 0), "reverse direction stays up");
        let dead = o.remask(&FaultSet::from_routers([2]));
        assert!(!dead.link_usable(2, 0));
        assert!(!dead.link_usable(0, 2));
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
