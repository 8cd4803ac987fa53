//! Flow-level fast path: max-min fair rate sharing over flows instead of
//! per-flit cycles.
//!
//! The cycle engine models every flit of every packet, which caps one
//! machine at a few thousand routers. The flow model drops time
//! entirely: each (source endpoint → destination endpoint) pair becomes
//! a *flow* with a demand (the offered load, as a fraction of endpoint
//! injection bandwidth), routed once over a [`PathOracle`], and the
//! steady-state rate of every flow is the unique **max-min fair**
//! allocation under per-link capacities. That collapses a simulation to
//! one routing pass plus a water-filling solve — a 100k+ endpoint
//! PolarStar fits in memory once the oracle is the table-free analytic
//! backend (`polarstar-routed`'s `AnalyticOracle`), because nothing in
//! this module is O(routers²).
//!
//! Routing is **class-batched**: [`FlowPlan::build`] first reduces the
//! resolved traffic to unique `(src_router, dst_router)` pairs, queries
//! the oracle once per unique pair (rayon-sharded by destination router,
//! deterministic order), and materializes one shared ECMP-split DAG per
//! pair that flows reference by index with a demand weight — O(unique
//! router pairs) oracle work instead of O(flows). Every pair's DAG lives
//! in one arena of `(CSR slot, split)` entries, addressed by a per-pair
//! span, so a plan of a million pairs is two allocations, not a million.
//! The pair index comes from a counting sort of the flows by source
//! router and a sort of each source's run by destination, so no global
//! sort of the flows' router pairs runs, and they are freed before the
//! routing pass. Pairs sharing a destination router additionally share
//! one bulk [`PathOracle::distance_column`] when the oracle supports it,
//! so the per-pair DAG is reconstructed from the column instead of
//! per-hop template queries: a router compares its ports with the
//! column 64 at a time ([`column_next_hops_all`]). A router two hops out
//! reaches the destination only through the destination's own
//! neighbors, so a group with at least as many pairs as the destination
//! has ports (≤ 64) first marks, per router two hops out, which of those
//! neighbors it is adjacent to, in one word: that router's hops are then
//! the word's set bits, a router one hop out reads its one stored slot,
//! and under diameter 3 only the source of a three-hop pair still
//! compares its ports.
//!
//! The network reads the DAGs where the plan keeps them: the arena sits
//! behind an `Arc`, and [`FlowPlan::network`] hands the network a clone
//! of it plus one `(injection link, ejection link, arena run)` record per
//! flow, so a plan and its network hold each DAG entry once. The plan
//! mutates its arena copy-on-write, so a network taken before an epoch
//! walk keeps the DAGs it was built from. Nothing else builds a network:
//! its numbers are pinned by `routed/tests/flow_pin.rs` and by the
//! max-min fairness proptest below.
//!
//! Model correspondence with the cycle engine (cross-validated by
//! `bench/src/bin/flow_sweep`):
//!
//! * every directed router-router link has capacity 1 flit/cycle, as do
//!   the per-endpoint injection and ejection (NIC) links — the same
//!   normalization the cycle engine uses for `offered`/`accepted`;
//! * [`FlowRouting::EcmpSplit`] spreads each flow over the minimal-path
//!   DAG with equal per-hop splits, mirroring the engine's uniform
//!   choice among minimal output ports; [`FlowRouting::SinglePath`]
//!   pins each flow to the oracle's deterministic first minimal path;
//! * a configuration is *stable* at an offered load iff every flow
//!   receives its full demand, and [`FlowNetwork::saturation_load`] is
//!   the exact load where the most-loaded link reaches capacity. In the
//!   cycle engine that onset is where the latency knee begins; measured
//!   *throughput* loss only becomes material once enough flows cross
//!   saturated links, so cross-validation compares a matched
//!   delivered-fraction threshold on both models (see
//!   `bench/src/bin/flow_sweep`), where the two agree to a few percent.
//!
//! Beyond a single uniform demand, a plan accepts several
//! [`TrafficComponent`]s (e.g. a foreground pattern plus a scaled
//! background overlay), each with a [`FlowDemand`] weighting; weighted
//! demands flow through the progressive filling, so flow `f` receives
//! `level · demand_f` when its bottleneck freezes. Fault-epoch sweeps
//! walk [`FlowPlan::advance_epoch`]: under monotone fault growth only
//! pairs whose cached DAG touches a newly failed link are re-routed.
//!
//! The solve ([`FlowNetwork::solve`]) is progressive filling in level
//! order: levels `residual/weight` only rise as flows freeze, so the
//! candidate links are sorted once by their initial level and consumed
//! by a cursor, and an entry found stale on pop is re-queued at its
//! risen level on a small overflow heap; each pop takes the smaller of
//! the two heads. That converges to the exact max-min allocation in
//! `O(F·|path| + L log L + S log S)` for `S` stale re-queues. It is
//! sequential and allocation-order free, hence byte-identical at any
//! rayon pool size (only the routing pass fans out, and it collects in
//! deterministic pair order).

use crate::traffic::{resolve_flows, Pattern};
use polarstar_graph::Graph;
use polarstar_topo::fault::{FaultMask, FaultSet};
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::oracle::{column_next_hops_all, PathOracle};
use rayon::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::once;
use std::sync::Arc;

/// How a flow maps onto router links.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FlowRouting {
    /// Spread each flow over its minimal-path DAG with equal splits at
    /// every hop — the fluid limit of the cycle engine's uniform
    /// minimal-port choice.
    #[default]
    EcmpSplit,
    /// Pin each flow to the oracle's deterministic first minimal path.
    SinglePath,
}

impl FlowRouting {
    /// Display label used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            FlowRouting::EcmpSplit => "ecmp",
            FlowRouting::SinglePath => "single",
        }
    }
}

/// Per-flow demand weighting of one traffic component.
///
/// A flow's demand at offered load `o` is `o · weight`, and the max-min
/// allocation shares bottlenecks proportionally to the weights (weighted
/// max-min fairness). Weights must be positive and finite.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowDemand {
    /// Every flow demands the offered load (weight 1) — the classic
    /// uniform-demand model, byte-identical to the historical solver.
    Uniform,
    /// Every flow's demand is scaled by one factor — e.g. a background
    /// overlay at half the foreground intensity.
    Scaled(f64),
    /// One weight per *source endpoint* (global endpoint id), modelling
    /// an arbitrary traffic-matrix row intensity.
    PerSource(Vec<f64>),
}

impl FlowDemand {
    /// The demand weight of a flow sourced at endpoint `src_ep`.
    pub fn weight(&self, src_ep: u32) -> f64 {
        match self {
            FlowDemand::Uniform => 1.0,
            FlowDemand::Scaled(s) => *s,
            FlowDemand::PerSource(w) => w[src_ep as usize],
        }
    }
}

/// One traffic component of a flow plan: a resolved pattern plus a
/// demand weighting. A plan may stack several (foreground matrix plus
/// background overlay); their flows concatenate in component order.
#[derive(Clone, Debug)]
pub struct TrafficComponent {
    /// The synthetic pattern to resolve.
    pub pattern: Pattern,
    /// Resolution seed (use `traffic::engine_resolve_seed` to match a
    /// cycle-engine run).
    pub seed: u64,
    /// Per-flow demand weighting.
    pub demand: FlowDemand,
}

impl TrafficComponent {
    /// A unit-demand component (the classic single-pattern build).
    pub fn new(pattern: Pattern, seed: u64) -> Self {
        TrafficComponent {
            pattern,
            seed,
            demand: FlowDemand::Uniform,
        }
    }

    /// A component with an explicit demand weighting.
    pub fn with_demand(pattern: Pattern, seed: u64, demand: FlowDemand) -> Self {
        TrafficComponent {
            pattern,
            seed,
            demand,
        }
    }
}

/// One planned flow: endpoints, the unique router-pair index whose
/// shared DAG it rides, and its demand weight.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlannedFlow {
    /// Source endpoint (global id).
    pub src_ep: u32,
    /// Destination endpoint (global id).
    pub dst_ep: u32,
    /// Index into [`FlowPlan::pairs`] of this flow's router pair.
    pub pair: u32,
    /// Demand weight (multiplies the offered load).
    pub demand: f64,
}

/// A class-batched routed traffic plan: the unique router pairs of the
/// resolved traffic, one shared ECMP/single-path DAG per pair, and the
/// per-flow references into them.
///
/// Build once per (spec, oracle, components, routing); materialize a
/// solvable [`FlowNetwork`] with [`FlowPlan::network`]; walk fault
/// epochs with [`FlowPlan::advance_epoch`], which re-routes only the
/// pairs a new fault epoch can affect.
#[derive(Clone)]
pub struct FlowPlan {
    name: String,
    net_links: usize,
    endpoints: usize,
    routing: FlowRouting,
    /// All demand weights are exactly 1.0 (keeps the materialized
    /// network on the demand-free fast path, byte-identical to the
    /// historical uniform build).
    uniform: bool,
    flows: Vec<PlannedFlow>,
    /// Unique `(src_router, dst_router)` pairs, sorted lexicographically.
    pairs: Vec<(u32, u32)>,
    /// Every pair's shared DAG, packed: network-link `(edge id, split
    /// fraction)` entries, one pair's run in walk order. Re-routed pairs
    /// append a new run and leave their old one dead until a repack.
    /// Shared with every network taken from the plan; written through
    /// `Arc::make_mut` or replaced whole, never in place under a reader.
    arena: Arc<Vec<(u32, f32)>>,
    /// Per-pair `(start, len)` run in `arena` (`len` [`UNROUTABLE`] =
    /// pair unroutable, `start` unused; `len == 0` = same router, NIC
    /// links only).
    spans: Vec<(u32, u32)>,
}

/// The span length of an unroutable pair.
const UNROUTABLE: u32 = u32::MAX;

/// Destination groups one routing batch fans out over. A batch's
/// group-local DAG buffers are appended to the arena and freed before
/// the next batch routes, so the small heap blocks they occupy are
/// reused instead of piling up to the size of the whole arena.
const ROUTE_BATCH_GROUPS: usize = 256;

impl FlowPlan {
    /// Resolve `components` against `spec`, reduce to unique router
    /// pairs, and route each unique pair once through `oracle`.
    ///
    /// The routing pass shards over destination-router groups with
    /// rayon and scatters results by pair index, so the plan is
    /// byte-identical at any thread count.
    pub fn build<O: PathOracle + Sync>(
        spec: &NetworkSpec,
        oracle: &O,
        components: &[TrafficComponent],
        routing: FlowRouting,
    ) -> FlowPlan {
        let (flows, pairs) = index_pairs(spec, components);
        let uniform = flows.iter().all(|f| f.demand == 1.0);
        let mut plan = FlowPlan {
            name: spec.name.clone(),
            net_links: spec.graph.directed_edge_count(),
            endpoints: spec.total_endpoints(),
            routing,
            uniform,
            flows,
            arena: Arc::default(),
            spans: vec![(0, UNROUTABLE); pairs.len()],
            pairs,
        };
        let all: Vec<u32> = (0..plan.pairs.len() as u32).collect();
        plan.route(&spec.graph, oracle, &all);
        plan
    }

    /// The cached DAG of pair `i` (`None` = unroutable).
    fn dag(&self, i: usize) -> Option<&[(u32, f32)]> {
        let (start, len) = self.spans[i];
        (len != UNROUTABLE).then(|| &self.arena[start as usize..][..len as usize])
    }

    /// Materialize the solvable flow network from the cached per-pair
    /// DAGs: one record per routable flow pointing into the shared arena
    /// (no DAG entry is copied), the link-side transpose and unit loads.
    pub fn network(&self) -> FlowNetwork {
        let links = self.net_links + 2 * self.endpoints;
        let inject_base = self.net_links as u32;
        let eject_base = (self.net_links + self.endpoints) as u32;
        let mut flows = Vec::with_capacity(self.flows.len());
        let mut demand = Vec::new();
        for pf in &self.flows {
            let (start, len) = self.spans[pf.pair as usize];
            if len == UNROUTABLE {
                continue;
            }
            flows.push(FlowHops {
                inject: inject_base + pf.src_ep,
                eject: eject_base + pf.dst_ep,
                start,
                len,
            });
            if !self.uniform {
                demand.push(pf.demand);
            }
        }
        let arena = &self.arena[..];
        let entries = incidences(&flows);

        // Transpose to link-side CSR by counting sort. Unit loads carry
        // the demand weights (×1.0 is exact, so the uniform case stays
        // bitwise identical to the unweighted build).
        let link_off = bucket_offsets(
            flows.iter().flat_map(|h| h.hops(arena).map(|(l, _)| l)),
            links,
        );
        let mut cursor = link_off.clone();
        let mut link_flow = vec![0u32; entries];
        let mut unit_load = vec![0f64; links];
        for (f, h) in flows.iter().enumerate() {
            let df = if self.uniform { 1.0 } else { demand[f] };
            h.hops(arena).for_each(|(l, w)| {
                let c = &mut cursor[l as usize];
                link_flow[*c as usize] = f as u32;
                *c += 1;
                unit_load[l as usize] += f64::from(w) * df;
            });
        }

        FlowNetwork {
            name: self.name.clone(),
            net_links: self.net_links,
            links,
            arena: Arc::clone(&self.arena),
            unroutable: (self.flows.len() - flows.len()) as u64,
            flows,
            link_off,
            link_flow,
            unit_load,
            endpoints: self.endpoints,
            demand: (!self.uniform).then_some(demand),
        }
    }

    /// Re-route the plan from fault epoch `prev` to `next` (the oracle
    /// must already answer for `next`, e.g. after `remask`). Returns the
    /// number of unique pairs re-routed.
    ///
    /// Under monotone growth (`next ⊇ prev`, symmetric link faults)
    /// only pairs whose cached DAG crosses a newly failed link are
    /// re-routed: a DAG none of whose edges die is provably unchanged
    /// (its paths keep certifying the old distances, and the triangle
    /// inequality rules out new minimal next hops). A single path is
    /// the first minimal next hop at every hop, so the same argument
    /// keeps a surviving path the first one: the minimal next hops it
    /// skipped can only have died. Recovery epochs and one-direction
    /// link faults fall back to a full re-route — asymmetric faults let
    /// the DAG use edges outside the undirected degraded graph, which
    /// breaks the reuse lemma.
    ///
    /// Cost: the newly failed set compiled to its [`FaultMask`]
    /// (O(|added|·log deg)), one pass over every cached DAG reading
    /// its edge bits to find the dirty pairs (O(total DAG entries),
    /// ~5 ms for 109 k pairs), then per dirty destination one
    /// [`PathOracle::distance_column`] and per dirty pair one DAG walk.
    /// With the analytic backend a faulted column is a local repair of
    /// the diameter-3 envelope, tens of microseconds on a 9 954-router
    /// network — so an epoch that dirties 1 % of the pairs costs about
    /// a tenth of a fresh faulted build, where a BFS per destination
    /// used to make five epochs slower than five rebuilds
    /// (`flow.advance_vs_rebuild` in the `benchmark/` ledger).
    pub fn advance_epoch<O: PathOracle + Sync>(
        &mut self,
        spec: &NetworkSpec,
        oracle: &O,
        prev: &FaultSet,
        next: &FaultSet,
    ) -> usize {
        let added = next.difference(prev);
        let removed = prev.difference(next);
        if added.is_empty() && removed.is_empty() {
            return 0;
        }
        let graph = &spec.graph;
        let full = !removed.is_empty() || !next.compile(graph).is_symmetric();
        let subset: Vec<u32> = if full {
            // A fresh arena, not a cleared one: a network may share it.
            self.arena = Arc::default();
            (0..self.pairs.len() as u32).collect()
        } else {
            let dirty = added.compile(graph);
            // Unroutable pairs stay unroutable under monotone fault
            // growth; clean DAGs are reused verbatim.
            (0..self.pairs.len() as u32)
                .filter(|&i| {
                    self.dag(i as usize)
                        .is_some_and(|dag| dag.iter().any(|&(e, _)| dirty.edge_dead(e)))
                })
                .collect()
        };
        self.route(graph, oracle, &subset);
        self.repack();
        subset.len()
    }

    /// Route every pair in `subset` (ascending indices into `pairs`),
    /// appending the DAGs to the arena and pointing their spans at them.
    /// Pairs are grouped by destination router so one bulk distance
    /// column serves a whole group when the oracle has one, plus the
    /// destination's parent masks ([`WalkScratch::load_parents`]) when
    /// the group holds at least as many pairs as the destination has
    /// ports, at most 64 — a fresh build's groups at scale, not an epoch
    /// walk's handful of dirty pairs a destination; the groups
    /// of one batch ([`ROUTE_BATCH_GROUPS`]) route in parallel into
    /// group-local buffers, which are appended in group order before the
    /// next batch starts, so the arena is byte-identical at any thread
    /// count. The first append copies the arena if a network shares it.
    fn route<O: PathOracle + Sync>(&mut self, graph: &Graph, oracle: &O, subset: &[u32]) {
        let pairs = &self.pairs;
        // A stable counting sort by destination over ascending pair
        // indices: pairs sort by (rs, rd), so this is (rd, rs) order.
        // Each entry carries its pair's source router, so the walks read
        // `order` in sequence instead of `pairs` at random (a quarter of
        // the walks' time at a million pairs).
        let rd_off = bucket_offsets(subset.iter().map(|&i| pairs[i as usize].1), graph.n());
        let mut cursor = rd_off.clone();
        let mut order = vec![(0u32, 0u32); subset.len()];
        for &i in subset {
            let (rs, rd) = pairs[i as usize];
            let c = &mut cursor[rd as usize];
            order[*c as usize] = (i, rs);
            *c += 1;
        }
        let groups: Vec<&[(u32, u32)]> = rd_off
            .windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| &order[w[0] as usize..w[1] as usize])
            .collect();
        let routing = self.routing;
        // One distance column and one walk scratch per worker, so neither
        // allocates once a worker has seen its first group.
        let per_worker = || (Vec::<u32>::new(), WalkScratch::default());
        // A group's DAG entries, and each pair's span within them.
        type RoutedGroup = (Vec<(u32, f32)>, Vec<(u32, u32)>);
        for batch in groups.chunks(ROUTE_BATCH_GROUPS) {
            let routed: Vec<RoutedGroup> = batch
                .par_iter()
                .map_init(per_worker, |(col, walk), idxs: &&[(u32, u32)]| {
                    let rd = pairs[idxs[0].0 as usize].1;
                    // The column fast path needs the oracle and the graph
                    // to agree on the router id space; otherwise fall back
                    // to per-pair queries (which bounds-check per query).
                    let col_ok =
                        routing == FlowRouting::EcmpSplit && oracle.num_routers() == graph.n();
                    let mask = col_ok.then(|| oracle.distance_column(rd, col)).flatten();
                    let c = (col.len() == graph.n()).then_some(&col[..]).zip(mask);
                    walk.buf.clear();
                    // The masks cost about deg² and save about deg per
                    // distance-2 router walked: they pay once the group
                    // holds as many pairs as the destination has ports.
                    let deg = graph.degree(rd);
                    if let Some((c, _)) = c.filter(|_| idxs.len() >= deg && deg <= 64) {
                        walk.load_parents(graph, c, rd);
                    }
                    let spans = idxs
                        .iter()
                        .map(|&(_, rs)| {
                            let start = walk.buf.len();
                            if route_one_pair(graph, oracle, rs, rd, routing, c, walk) {
                                (start as u32, (walk.buf.len() - start) as u32)
                            } else {
                                (0, UNROUTABLE)
                            }
                        })
                        .collect();
                    walk.unload_parents(graph);
                    (walk.buf.clone(), spans)
                })
                .collect();
            let arena = Arc::make_mut(&mut self.arena);
            let added: usize = routed.iter().map(|(buf, _)| buf.len()).sum();
            checked_u32("flow DAG arena entries", arena.len() + added);
            for (idxs, (buf, spans)) in batch.iter().zip(routed) {
                let base = arena.len() as u32;
                arena.extend_from_slice(&buf);
                for (&(i, _), (start, len)) in idxs.iter().zip(spans) {
                    self.spans[i as usize] = (base + start, len);
                }
            }
        }
    }

    /// Rewrite the arena without its dead runs once they outnumber the
    /// live entries, so a long epoch walk holds at most twice the DAGs
    /// it routes.
    fn repack(&mut self) {
        let live: usize = (0..self.spans.len())
            .filter_map(|i| self.dag(i))
            .map(<[_]>::len)
            .sum();
        if self.arena.len() <= 2 * live {
            return;
        }
        let mut packed = Vec::with_capacity(live);
        for span in self.spans.iter_mut().filter(|s| s.1 != UNROUTABLE) {
            let start = std::mem::replace(&mut span.0, packed.len() as u32);
            packed.extend_from_slice(&self.arena[start as usize..][..span.1 as usize]);
        }
        self.arena = Arc::new(packed);
    }

    /// The planned flows, in component/endpoint order.
    pub fn flows(&self) -> &[PlannedFlow] {
        &self.flows
    }

    /// The unique `(src_router, dst_router)` pairs, sorted.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Number of unique router pairs (the oracle-query count of the
    /// batched build).
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// The routing mode the plan was built with.
    pub fn routing(&self) -> FlowRouting {
        self.routing
    }
}

/// Resolve every component into planned flows, and index their router
/// pairs: the unique `(src_router, dst_router)` pairs, sorted, with each
/// flow's [`PlannedFlow::pair`] pointing into them.
///
/// The flows are counting-sorted into one bucket per source router, and
/// each bucket's run is sorted by `(destination, flow)`: walking the
/// buckets in order visits the pairs sorted, so a pair is new exactly
/// when it differs from the last one kept. The per-flow router pairs
/// are freed before the routing pass needs its memory.
fn index_pairs(
    spec: &NetworkSpec,
    components: &[TrafficComponent],
) -> (Vec<PlannedFlow>, Vec<(u32, u32)>) {
    let (mut flows, rpairs) = plan_flows(spec, components);
    checked_u32("planned flows", flows.len());
    let rs_off = bucket_offsets(rpairs.iter().map(|p| p.0), spec.graph.n());
    let mut cursor = rs_off.clone();
    // `destination << 32 | flow`, so a plain sort orders a run.
    let mut keyed = vec![0u64; rpairs.len()];
    for (f, &(rs, rd)) in rpairs.iter().enumerate() {
        let c = &mut cursor[rs as usize];
        keyed[*c as usize] = u64::from(rd) << 32 | f as u64;
        *c += 1;
    }
    drop((rpairs, cursor));
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(keyed.len());
    for (rs, w) in rs_off.windows(2).enumerate() {
        let run = &mut keyed[w[0] as usize..w[1] as usize];
        run.sort_unstable();
        for &key in run.iter() {
            let pair = (rs as u32, (key >> 32) as u32);
            if pairs.last() != Some(&pair) {
                pairs.push(pair);
            }
            flows[key as u32 as usize].pair = pairs.len() as u32 - 1;
        }
    }
    (flows, pairs)
}

/// Resolve every component into planned flows plus their router pairs.
fn plan_flows(
    spec: &NetworkSpec,
    components: &[TrafficComponent],
) -> (Vec<PlannedFlow>, Vec<(u32, u32)>) {
    let mut flows = Vec::new();
    let mut rpairs = Vec::new();
    for comp in components {
        if let FlowDemand::PerSource(w) = &comp.demand {
            assert_eq!(
                w.len(),
                spec.total_endpoints(),
                "FlowDemand::PerSource has {} weights but {} has {} endpoints",
                w.len(),
                spec.name,
                spec.total_endpoints()
            );
        }
        for (src_ep, dst_ep) in resolve_flows(&comp.pattern, spec, comp.seed) {
            let demand = comp.demand.weight(src_ep);
            assert!(
                demand.is_finite() && demand > 0.0,
                "flow demand weights must be positive and finite, got {demand} for endpoint {src_ep}"
            );
            let (rs, _) = spec.endpoint_router(src_ep as usize);
            let (rd, _) = spec.endpoint_router(dst_ep as usize);
            flows.push(PlannedFlow {
                src_ep,
                dst_ep,
                pair: u32::MAX,
                demand,
            });
            rpairs.push((rs, rd));
        }
    }
    (flows, rpairs)
}

/// Counting-sort offsets of `keys` over `0..n`: `off[k]..off[k + 1]` is
/// where key `k`'s entries land when placed in key order.
fn bucket_offsets(keys: impl Iterator<Item = u32>, n: usize) -> Vec<u32> {
    let mut off = vec![0u32; n + 1];
    keys.for_each(|k| off[k as usize + 1] += 1);
    for k in 1..=n {
        off[k] += off[k - 1];
    }
    off
}

/// `count` as a `u32`, or a panic naming `what`, the count and the cap:
/// arena spans and incidence offsets are `u32`, and a release build
/// would wrap them silently.
fn checked_u32(what: &str, count: usize) -> u32 {
    u32::try_from(count)
        .unwrap_or_else(|_| panic!("{what}: {count} exceeds the u32::MAX = {} cap", u32::MAX))
}

/// Link incidences of `flows` (hops, NIC links included): the length of
/// the network's `link_flow` and the top of its `u32` offsets, checked.
fn incidences(flows: &[FlowHops]) -> usize {
    let total = flows.iter().map(|h| h.len as usize + 2).sum();
    checked_u32("flow network link incidences", total) as usize
}

/// Work lists of the level-by-level ECMP walk, plus the group-local DAG
/// buffer the walk appends to, reused across pairs.
#[derive(Default)]
struct WalkScratch {
    level: Vec<(u32, f64)>,
    next: Vec<(u32, f64)>,
    /// `(CSR slot, neighbor)` of each minimal next hop of one router.
    hops: Vec<(u32, u32)>,
    /// Neighbors from [`PathOracle::min_next_hops`] (per-query path).
    nbs: Vec<u32>,
    buf: Vec<(u32, f32)>,
    /// The destination whose parent masks `pmask` and `last` hold, if
    /// any ([`WalkScratch::load_parents`]).
    parents: Option<u32>,
    /// Per router `u` at distance 2: bit `j` set iff the destination's
    /// `j`-th neighbor is at distance 1 and adjacent to `u`. Zero
    /// elsewhere, between groups too.
    pmask: Vec<u64>,
    /// Per router `x` at distance 1: the CSR slot `x → destination`.
    last: Vec<u32>,
}

impl WalkScratch {
    /// Load the destination-side parent masks of `rd` (degree ≤ 64) from
    /// its distance column `col`: one pass over the neighbors of its
    /// neighbors. A distance-2 router reaches `rd` only through `rd`'s
    /// own neighbors, so its minimal next hops are the
    /// set bits of one word, ascending — its CSR order, as neighbor
    /// lists are sorted — and a distance-1 router's is one stored slot.
    fn load_parents(&mut self, graph: &Graph, col: &[u32], rd: u32) {
        self.pmask.resize(graph.n(), 0);
        self.last.resize(graph.n(), 0);
        for (j, &x) in graph.neighbors(rd).iter().enumerate() {
            if col[x as usize] != 1 {
                continue;
            }
            self.last[x as usize] = graph.edge_id(x, rd).expect("adjacency is symmetric");
            for &u in graph.neighbors(x) {
                self.pmask[u as usize] |= u64::from(col[u as usize] == 2) << j;
            }
        }
        self.parents = Some(rd);
    }

    /// Zero the masks [`WalkScratch::load_parents`] set, and only those.
    fn unload_parents(&mut self, graph: &Graph) {
        if let Some(rd) = self.parents.take() {
            for &x in graph.neighbors(rd) {
                for &u in graph.neighbors(x) {
                    self.pmask[u as usize] = 0;
                }
            }
        }
    }
}

/// Route one router pair, appending its network-link DAG entries to
/// `scratch.buf`. Returns `false`, with the buffer as it was, when the
/// pair is unroutable (severed, or an oracle path crossing an edge the
/// graph does not carry — a mismatched oracle/graph pair used to panic
/// here). A same-router pair appends nothing (NIC links only).
///
/// With a distance column and its mask, minimal next hops and their CSR
/// slots come straight from the `distance_column` reconstruction
/// contract: a router one hop out probes its slot to the destination
/// (stored when the scratch holds parent masks for `rd`), a router two
/// hops out reads its parent mask when loaded, and any other router
/// compares its ports word by word ([`column_next_hops_all`]). Without
/// a column, hops come from per-query [`PathOracle::min_next_hops`]
/// plus [`Graph::edge_id`]. Every way lists the same hops in CSR order
/// and the walk itself is the exact per-flow walk, so the entries are
/// bitwise identical.
fn route_one_pair<O: PathOracle + ?Sized>(
    graph: &Graph,
    oracle: &O,
    rs: u32,
    rd: u32,
    routing: FlowRouting,
    col: Option<(&[u32], &FaultMask)>,
    scratch: &mut WalkScratch,
) -> bool {
    let WalkScratch {
        level,
        next,
        hops,
        nbs,
        buf: out,
        parents,
        pmask,
        last,
    } = scratch;
    let parents = *parents == Some(rd);
    let start = out.len();
    let mut walk = || -> Option<()> {
        if rs == rd {
            // Same-router flows are delivered over NIC links alone; they
            // only sever when the oracle rejects the router outright.
            return oracle.distance(rs, rd).ok().map(drop);
        }
        match routing {
            FlowRouting::SinglePath => {
                let path = oracle.path(rs, rd).ok()?;
                for w in path.windows(2) {
                    out.push((graph.edge_id(w[0], w[1])?, 1.0));
                }
            }
            FlowRouting::EcmpSplit => {
                let d = match col {
                    Some((c, _)) => Some(c[rs as usize]).filter(|&d| d != u32::MAX)?,
                    None => oracle.distance(rs, rd).ok()?,
                };
                // Walk the minimal-path DAG level by level, splitting each
                // router's incoming fraction equally over its minimal next
                // hops. Levels hold few routers (diameter ≤ 3 here), so
                // linear-scan merging beats hashing.
                level.clear();
                level.push((rs, 1.0));
                for _ in 0..d {
                    next.clear();
                    for &(v, frac) in level.iter() {
                        hops.clear();
                        match col {
                            // One hop from the destination, the destination
                            // is the only minimal next hop: one slot, not a
                            // scan of every neighbor.
                            Some((c, mask)) if c[v as usize] == 1 => {
                                let e = if parents {
                                    Some(last[v as usize])
                                } else {
                                    graph.edge_id(v, rd)
                                };
                                hops.extend(e.filter(|&e| !mask.link_dead(e)).map(|e| (e, rd)));
                            }
                            Some((c, mask)) if parents && c[v as usize] == 2 => {
                                let mut bits = pmask[v as usize];
                                while bits != 0 {
                                    let x = graph.neighbors(rd)[bits.trailing_zeros() as usize];
                                    bits &= bits - 1;
                                    let e = graph.edge_id(v, x)?;
                                    if !mask.link_dead(e) {
                                        hops.push((e, x));
                                    }
                                }
                            }
                            Some((c, mask)) => {
                                column_next_hops_all(graph, c, v, mask).for_each(|h| hops.push(h))
                            }
                            None => {
                                nbs.clear();
                                oracle.min_next_hops(v, rd, nbs).ok()?;
                                for &nb in nbs.iter() {
                                    hops.push((graph.edge_id(v, nb)?, nb));
                                }
                            }
                        }
                        if hops.is_empty() {
                            return None;
                        }
                        let share = frac / hops.len() as f64;
                        for &(e, nb) in hops.iter() {
                            out.push((e, share as f32));
                            match next.iter_mut().find(|(r, _)| *r == nb) {
                                Some((_, f)) => *f += share,
                                None => next.push((nb, share)),
                            }
                        }
                    }
                    std::mem::swap(level, next);
                }
            }
        }
        Some(())
    };
    let routed = walk().is_some();
    if !routed {
        out.truncate(start);
    }
    routed
}

/// One routable flow of a [`FlowNetwork`]: its two NIC links and the run
/// of the shared arena that holds its pair's DAG.
#[derive(Clone, Copy)]
struct FlowHops {
    inject: u32,
    eject: u32,
    /// `(start, len)` of the DAG's run in the arena (`len == 0` for a
    /// same-router flow).
    start: u32,
    len: u32,
}

impl FlowHops {
    /// The flow's `(link, traffic fraction)` hops: injection link, DAG
    /// run, ejection link — the order every load sum and fill
    /// subtraction takes.
    fn hops(self, arena: &[(u32, f32)]) -> impl Iterator<Item = (u32, f32)> + '_ {
        let run = &arena[self.start as usize..][..self.len as usize];
        once((self.inject, 1.0))
            .chain(run.iter().copied())
            .chain(once((self.eject, 1.0)))
    }
}

/// Steady-state answer of one max-min solve at a fixed offered load.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowResult {
    /// Demand per flow (fraction of endpoint injection bandwidth).
    pub offered: f64,
    /// Mean allocated rate per active flow.
    pub accepted: f64,
    /// Smallest allocated rate over active flows (`== offered` iff the
    /// network carries every demand, for unit demand weights).
    pub min_rate: f64,
    /// Aggregate delivered fraction: Σ rates / Σ demands.
    pub delivered_fraction: f64,
    /// Every flow received its full demand (fluid stability — the
    /// analogue of a stable cycle-engine run).
    pub stable: bool,
    /// Links pinned at capacity by the allocation.
    pub bottleneck_links: usize,
    /// Highest link utilization (1.0 = a saturated link).
    pub max_link_utilization: f64,
    /// Progressive-filling freeze rounds the solve needed (0 when the
    /// fast sub-saturation path proved every demand fits).
    pub rounds: u64,
    /// Active flows in the solve.
    pub flows: usize,
    /// Flows dropped at build time because the oracle reports no
    /// surviving path (mirrors `SimResult::unroutable`).
    pub unroutable: u64,
}

/// A routed flow set over a network: per-flow link incidence (with ECMP
/// split weights), its transpose, and per-link unit loads.
///
/// Built once per (spec, oracle, traffic, routing) — the routing pass is
/// the expensive part and fans out over rayon — then solved at any
/// number of offered loads. Every network comes from a [`FlowPlan`]
/// ([`FlowPlan::network`]; [`FlowNetwork::build`] is the one-pattern
/// shorthand) and reads its DAGs from the plan's shared arena. Equality
/// compares each flow's hop sequence, not where its run sits in the
/// arena: a walked plan and a fresh build lay their runs out differently.
#[derive(Clone)]
pub struct FlowNetwork {
    name: String,
    /// Directed router-router links (graph CSR slots); injection links
    /// occupy `net_links..net_links+endpoints`, ejection links
    /// `net_links+endpoints..net_links+2·endpoints`.
    net_links: usize,
    /// Total link count including NIC links.
    links: usize,
    /// The plan's DAG arena: `(link, traffic fraction)` entries, 1.0 on
    /// a single path and DAG split fractions under ECMP.
    arena: Arc<Vec<(u32, f32)>>,
    /// One record per active flow, in plan flow order.
    flows: Vec<FlowHops>,
    /// Transposed incidence: per-link CSR of flow ids.
    link_off: Vec<u32>,
    link_flow: Vec<u32>,
    /// Σ (flow weight × demand weight) per link: link load at unit
    /// offered load.
    unit_load: Vec<f64>,
    /// Endpoints in the spec (active flows ≤ endpoints per component).
    endpoints: usize,
    /// Flows dropped because the oracle reports the pair unreachable.
    unroutable: u64,
    /// Per-active-flow demand weights (`None` = all exactly 1.0 — the
    /// historical uniform model, solved on the identical code path).
    demand: Option<Vec<f64>>,
}

/// Internal outcome of one progressive filling.
struct Filling {
    /// Max-min rate per flow.
    rate: Vec<f64>,
    /// Per-link fill state (NIC + network links); `residual` is the
    /// capacity left over once the fill ends.
    links: Vec<LinkFill>,
    /// Freeze rounds (bottleneck links processed).
    rounds: u64,
}

/// One link during a fill: the summed weight of its unfrozen flows and
/// its residual capacity, side by side so a freeze's two writes to a
/// link share one cache line.
#[derive(Clone, Copy)]
struct LinkFill {
    weight: f64,
    residual: f64,
}

impl FlowNetwork {
    /// Route one flow per active endpoint of `pattern` through `oracle`
    /// with the class-batched build (one oracle query per unique router
    /// pair).
    ///
    /// The uniform pattern draws one destination per endpoint from a
    /// ChaCha8 stream seeded by `seed` (a sampled snapshot of uniform
    /// traffic — flow models have no per-packet redraws); map patterns
    /// (permutation, bit-shuffle/-reverse, adversarial) use their exact
    /// resolved destination maps, so cross-validation runs see the
    /// identical traffic the cycle engine simulates. Unreachable pairs
    /// (fault-degraded oracles) are counted, not routed.
    pub fn build<O: PathOracle + Sync>(
        spec: &NetworkSpec,
        oracle: &O,
        pattern: &Pattern,
        seed: u64,
        routing: FlowRouting,
    ) -> FlowNetwork {
        FlowPlan::build(
            spec,
            oracle,
            &[TrafficComponent::new(pattern.clone(), seed)],
            routing,
        )
        .network()
    }

    /// Topology label the flows were routed on.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Active flows (routable active endpoints of the pattern).
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Active flow `f`'s `(link, traffic fraction)` hops, in the order
    /// loads are summed and the fill subtracts them.
    fn hops(&self, f: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        self.flows[f].hops(&self.arena)
    }

    /// Links (directed router links plus per-endpoint NIC links).
    pub fn num_links(&self) -> usize {
        self.links
    }

    /// Flows dropped at build time as unreachable.
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }

    /// Per-active-flow demand weights (`None` = uniform unit demand).
    pub fn demands(&self) -> Option<&[f64]> {
        self.demand.as_deref()
    }

    #[inline]
    fn demand_of(&self, f: usize) -> f64 {
        match &self.demand {
            None => 1.0,
            Some(d) => d[f],
        }
    }

    /// The exact offered load at which the most-loaded link reaches
    /// capacity — the fluid saturation point. Demands are met iff
    /// `offered ≤ saturation_load()`. Delegates to
    /// [`crate::stats::fluid_onset`] — the shared onset definition the
    /// cycle engine's empirical estimator is cross-validated against.
    pub fn saturation_load(&self) -> f64 {
        crate::stats::fluid_onset(self.max_unit_load())
    }

    /// Highest per-unit-offered-load weighted demand over all links
    /// (NIC links included).
    pub fn max_unit_load(&self) -> f64 {
        self.unit_load.iter().copied().fold(0.0, f64::max)
    }

    /// Highest per-unit-offered-load weighted demand over directed
    /// router-router links only — comparable to
    /// [`crate::negotiate::NegotiatedRoutes::max_link_load`].
    pub fn max_net_unit_load(&self) -> f64 {
        self.unit_load[..self.net_links]
            .iter()
            .copied()
            .fold(0.0, f64::max)
    }

    /// Resident bytes of the routed flow state (the per-flow records, the
    /// DAG entries of the arena they read, the link-side CSR and the
    /// unit-load array) — what the scale benchmark divides into
    /// endpoints-per-GB alongside the oracle's own footprint. The arena
    /// is counted once, though the plan it came from shares it.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.flows.capacity() * size_of::<FlowHops>()
            + self.arena.len() * size_of::<(u32, f32)>()
            + self.link_off.capacity() * 4
            + self.link_flow.capacity() * 4
            + self.unit_load.capacity() * 8
            + self.demand.as_ref().map_or(0, |d| d.capacity() * 8)
    }

    /// Progressive filling at one demand level. `None` when the fast
    /// capacity check proves every demand fits (no per-flow state
    /// needed).
    fn fill(&self, offered: f64) -> Option<Filling> {
        assert!(
            offered > 0.0 && offered <= 1.0,
            "offered load must be in (0, 1], got {offered}"
        );
        let flows = self.num_flows();
        let max_unit = self.unit_load.iter().copied().fold(0.0, f64::max);
        if offered * max_unit <= 1.0 + 1e-12 {
            return None;
        }

        let mut rate = vec![0f64; flows];
        let mut frozen = vec![false; flows];
        let mut links: Vec<LinkFill> = self
            .unit_load
            .iter()
            .map(|&weight| LinkFill {
                weight,
                residual: 1.0,
            })
            .collect();
        let mut rounds = 0u64;

        // Candidates as (level bits, link): levels are finite and
        // non-negative, so the IEEE bit pattern orders them; links whose
        // initial fair share already covers the demand can never bind
        // (levels only rise) and stay out. Sorted once and consumed in
        // order; an entry found stale re-queues on the overflow heap, and
        // each pop takes the smaller head of the two. A priority queue's
        // pops depend only on its contents (every link holds at most one
        // entry, so there are no ties), so this pops exactly what one
        // heap over every entry would.
        let mut sorted: Vec<(u64, u32)> = (0..self.links as u32)
            .filter(|&l| {
                let w = self.unit_load[l as usize];
                w > 0.0 && 1.0 / w < offered
            })
            .map(|l| ((1.0 / self.unit_load[l as usize]).to_bits(), l))
            .collect();
        sorted.sort_unstable();
        let mut sorted = sorted.into_iter().peekable();
        let mut overflow: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();

        loop {
            let from_overflow = match (sorted.peek(), overflow.peek()) {
                (Some(s), Some(Reverse(o))) => o < s,
                (None, o) => o.is_some(),
                (Some(_), None) => false,
            };
            let popped = if from_overflow {
                overflow.pop().map(|Reverse(entry)| entry)
            } else {
                sorted.next()
            };
            let Some((bits, l)) = popped else { break };
            let li = l as usize;
            let LinkFill { weight, residual } = links[li];
            if weight <= 1e-12 {
                continue; // every flow through l already froze
            }
            let level = residual / weight;
            if level >= offered {
                continue; // no longer binds below the demand
            }
            if level > f64::from_bits(bits) * (1.0 + 1e-12) {
                overflow.push(Reverse((level.to_bits(), l)));
                continue; // stale entry — re-queue at the risen level
            }
            rounds += 1;
            for i in self.link_off[li] as usize..self.link_off[li + 1] as usize {
                let f = self.link_flow[i] as usize;
                if frozen[f] {
                    continue;
                }
                frozen[f] = true;
                let df = self.demand_of(f);
                rate[f] = level * df;
                self.hops(f).for_each(|(l, w)| {
                    let k = &mut links[l as usize];
                    let w = f64::from(w) * df;
                    k.weight -= w;
                    k.residual -= w * level;
                });
            }
        }
        for (f, r) in rate.iter_mut().enumerate() {
            if !frozen[f] {
                *r = offered * self.demand_of(f);
            }
        }
        // Fold unfrozen (demand-limited) flows into the residuals so
        // `residual` reflects the final allocation on every link.
        for k in &mut links {
            k.residual -= k.weight * offered;
        }
        Some(Filling {
            rate,
            links,
            rounds,
        })
    }

    /// Max-min fair rates at one offered load, by progressive filling.
    ///
    /// Flow `f` demands `offered · demand_f` (all weights 1.0 in the
    /// uniform model). Below saturation the solve is a single O(links)
    /// capacity check; above it, links freeze in ascending fair-share
    /// order (`residual / unfrozen weight`) — levels only rise as flows
    /// freeze, so a candidate found stale on pop is re-queued at its
    /// risen level and the first valid minimum is the true bottleneck. Flows
    /// still unfrozen when no link binds below their demand freeze at
    /// the demand itself. Weighted demands receive `level · demand_f` at
    /// their bottleneck (weighted max-min fairness); stability compares
    /// per-flow rate/demand ratios, so it still means "every demand
    /// fully met".
    pub fn solve(&self, offered: f64) -> FlowResult {
        let flows = self.num_flows();
        // Σ demand weights and their minimum; `dsum / flows == 1.0`
        // exactly in the uniform model, keeping every uniform-path
        // expression bitwise identical to the unweighted solver.
        let (dsum, min_d) = match &self.demand {
            None => (flows as f64, 1.0),
            Some(d) => (
                d.iter().sum(),
                d.iter().copied().fold(f64::INFINITY, f64::min),
            ),
        };
        match self.fill(offered) {
            None => {
                let max_unit = self.unit_load.iter().copied().fold(0.0, f64::max);
                FlowResult {
                    offered,
                    accepted: if flows == 0 {
                        0.0
                    } else {
                        offered * (dsum / flows as f64)
                    },
                    min_rate: if flows == 0 { 0.0 } else { offered * min_d },
                    delivered_fraction: 1.0,
                    stable: flows > 0,
                    bottleneck_links: self
                        .unit_load
                        .iter()
                        .filter(|&&u| offered * u >= 1.0 - 1e-9)
                        .count(),
                    max_link_utilization: offered * max_unit,
                    rounds: 0,
                    flows,
                    unroutable: self.unroutable,
                }
            }
            Some(fill) => {
                let sum: f64 = fill.rate.iter().sum();
                let min_rate = fill.rate.iter().copied().fold(f64::INFINITY, f64::min);
                let min_ratio = match &self.demand {
                    None => min_rate,
                    Some(d) => fill
                        .rate
                        .iter()
                        .zip(d.iter())
                        .map(|(r, dd)| r / dd)
                        .fold(f64::INFINITY, f64::min),
                };
                let mut max_util = 0f64;
                let mut bottlenecks = 0usize;
                for link in &fill.links {
                    let used = 1.0 - link.residual;
                    if used >= 1.0 - 1e-9 {
                        bottlenecks += 1;
                    }
                    max_util = max_util.max(used);
                }
                FlowResult {
                    offered,
                    accepted: if flows == 0 { 0.0 } else { sum / flows as f64 },
                    min_rate: if flows == 0 { 0.0 } else { min_rate },
                    delivered_fraction: if flows == 0 {
                        0.0
                    } else {
                        sum / (offered * dsum)
                    },
                    stable: flows > 0 && min_ratio >= offered * (1.0 - 1e-9),
                    bottleneck_links: bottlenecks,
                    max_link_utilization: max_util,
                    rounds: fill.rounds,
                    flows,
                    unroutable: self.unroutable,
                }
            }
        }
    }

    /// The full max-min rate vector at one offered load (flow order =
    /// active-flow order).
    pub fn rates(&self, offered: f64) -> Vec<f64> {
        match self.fill(offered) {
            None => match &self.demand {
                None => vec![offered; self.num_flows()],
                Some(d) => d.iter().map(|dd| offered * dd).collect(),
            },
            Some(fill) => fill.rate,
        }
    }

    /// Per-link utilization under the allocation at `offered` (network
    /// links first, then injection, then ejection NIC links) — the
    /// flow-level counterpart of the cycle monitor's link-load report.
    pub fn link_utilization(&self, offered: f64) -> Vec<f64> {
        match self.fill(offered) {
            None => self.unit_load.iter().map(|u| u * offered).collect(),
            Some(fill) => fill.links.iter().map(|k| 1.0 - k.residual).collect(),
        }
    }
}

/// Equal networks carry the same flows over the same hops with the same
/// loads; where each flow's run sits in its arena does not matter.
impl PartialEq for FlowNetwork {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self, other);
        (&a.name, a.links, a.endpoints, a.unroutable, a.flows.len())
            == (&b.name, b.links, b.endpoints, b.unroutable, b.flows.len())
            && (&a.demand, &a.link_off, &a.link_flow, &a.unit_load)
                == (&b.demand, &b.link_off, &b.link_flow, &b.unit_load)
            && (0..a.flows.len()).all(|f| a.hops(f).eq(b.hops(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RouteTable;
    use polarstar_graph::Graph;

    /// 4 routers in a ring, 1 endpoint each.
    fn ring_spec() -> NetworkSpec {
        NetworkSpec::uniform("ring4", Graph::cycle(4), 1)
    }

    #[test]
    fn sub_saturation_meets_every_demand() {
        let spec = ring_spec();
        let table = RouteTable::for_spec(&spec);
        let fnet = FlowNetwork::build(
            &spec,
            &table,
            &Pattern::Permutation,
            7,
            FlowRouting::EcmpSplit,
        );
        // Self-pairs in the sampled permutation stay inactive, so the
        // flow count is at most one per endpoint and nothing is severed.
        assert!(
            fnet.num_flows() >= 1 && fnet.num_flows() <= 4,
            "{}",
            fnet.num_flows()
        );
        assert_eq!(fnet.unroutable(), 0);
        let r = fnet.solve(0.2);
        assert!(r.stable, "{r:?}");
        assert_eq!(r.delivered_fraction, 1.0);
        assert_eq!(r.rounds, 0);
        assert_eq!(r.accepted, 0.2);
    }

    #[test]
    fn ecmp_splits_over_both_ring_arms() {
        // On a 4-cycle, opposite pairs have two 2-hop minimal paths;
        // ECMP must put weight 1/2 on each first hop.
        let spec = ring_spec();
        let table = RouteTable::for_spec(&spec);
        let fnet = FlowNetwork::build(
            &spec,
            &table,
            &Pattern::BitReverse,
            0,
            FlowRouting::EcmpSplit,
        );
        // BitReverse on 4 endpoints: 0→0 (inactive), 1→2, 2→1, 3→3.
        assert_eq!(fnet.num_flows(), 2);
        let g = &spec.graph;
        // 1→2 is an adjacent pair: single 1-hop path, weight 1 on edge
        // (1,2); 2→1 likewise on (2,1).
        let e12 = g.edge_id(1, 2).unwrap() as usize;
        let e21 = g.edge_id(2, 1).unwrap() as usize;
        assert_eq!(fnet.unit_load[e12], 1.0);
        assert_eq!(fnet.unit_load[e21], 1.0);
        assert_eq!(fnet.saturation_load(), 1.0);
    }

    #[test]
    fn overload_is_max_min_fair() {
        // Two endpoints on router 0 of a path graph 0–1, both sending to
        // endpoints on router 1: the (0,1) link carries 2 flows and
        // bottlenecks at rate 1/2 each.
        let spec = NetworkSpec::uniform("p2", Graph::path(2), 2);
        let table = RouteTable::for_spec(&spec);
        // Permutation could map within-router; force cross-router flows
        // with BitReverse on 4 endpoints: 1→2, 2→1 cross the link.
        let fnet = FlowNetwork::build(
            &spec,
            &table,
            &Pattern::BitReverse,
            0,
            FlowRouting::EcmpSplit,
        );
        assert_eq!(fnet.num_flows(), 2);
        // Each flow crosses one direction of the link: saturation at 1.0.
        assert_eq!(fnet.saturation_load(), 1.0);
        let r = fnet.solve(1.0);
        assert!(r.stable);

        // Now 4 endpoints per router: bit-reverse on 8 endpoints maps
        // 1→4, 3→6, 4→1, 6→3 … several flows share each direction.
        let spec = NetworkSpec::uniform("p2w", Graph::path(2), 4);
        let table = RouteTable::for_spec(&spec);
        let fnet = FlowNetwork::build(
            &spec,
            &table,
            &Pattern::BitReverse,
            0,
            FlowRouting::EcmpSplit,
        );
        let g = &spec.graph;
        let e01 = g.edge_id(0, 1).unwrap() as usize;
        let fwd = fnet.unit_load[e01];
        assert!(fwd >= 2.0, "expected ≥2 forward flows, got {fwd}");
        let sat = fnet.saturation_load();
        assert!((sat - 1.0 / fwd).abs() < 1e-12);
        // Above saturation the shared link splits evenly.
        let r = fnet.solve(1.0);
        assert!(!r.stable);
        assert!(r.rounds > 0);
        assert!((r.min_rate - 1.0 / fwd).abs() < 1e-9, "{r:?}");
        assert!(r.bottleneck_links >= 1);
        assert!((r.max_link_utilization - 1.0).abs() < 1e-9);
        // Rates at the boundary are exact demands.
        let rb = fnet.solve(sat);
        assert!(rb.stable, "{rb:?}");
    }

    #[test]
    fn rates_and_utilization_are_consistent() {
        let spec = NetworkSpec::uniform("p2w", Graph::path(2), 4);
        let table = RouteTable::for_spec(&spec);
        let fnet = FlowNetwork::build(
            &spec,
            &table,
            &Pattern::BitReverse,
            0,
            FlowRouting::EcmpSplit,
        );
        let offered = 0.9;
        let rates = fnet.rates(offered);
        let util = fnet.link_utilization(offered);
        assert_eq!(rates.len(), fnet.num_flows());
        assert_eq!(util.len(), fnet.num_links());
        // Recompute utilization from rates and compare.
        let mut expect = vec![0f64; fnet.num_links()];
        for (f, &rate) in rates.iter().enumerate() {
            fnet.hops(f)
                .for_each(|(l, w)| expect[l as usize] += f64::from(w) * rate);
        }
        for (l, (&u, &e)) in util.iter().zip(expect.iter()).enumerate() {
            assert!((u - e).abs() < 1e-9, "link {l}: {u} vs {e}");
            assert!(u <= 1.0 + 1e-9, "link {l} over capacity: {u}");
        }
    }

    #[test]
    fn single_path_matches_oracle_path() {
        let spec = ring_spec();
        let table = RouteTable::for_spec(&spec);
        let fnet = FlowNetwork::build(
            &spec,
            &table,
            &Pattern::Permutation,
            3,
            FlowRouting::SinglePath,
        );
        // Every flow's weights are exactly 1.0 and its link count is
        // inject + hops + eject.
        for f in 0..fnet.num_flows() {
            let FlowHops { inject, eject, .. } = fnet.flows[f];
            let src_ep = inject as usize - fnet.net_links;
            let dst_ep = eject as usize - fnet.net_links - fnet.endpoints;
            let (rs, _) = spec.endpoint_router(src_ep);
            let (rd, _) = spec.endpoint_router(dst_ep);
            let hops: Vec<_> = fnet.hops(f).collect();
            assert_eq!(hops.len(), usize::from(table.distance(rs, rd)) + 2);
            assert!(hops.iter().all(|&(_, w)| w == 1.0));
        }
    }

    #[test]
    fn faulted_oracle_marks_unroutable() {
        use polarstar_topo::fault::FaultSet;
        // Path 0–1–2, sever (1,2): router-2 endpoints unreachable.
        let spec = NetworkSpec::uniform("p3", Graph::path(3), 1)
            .with_faults(FaultSet::from_links([(1, 2)]));
        let table = RouteTable::for_spec(&spec);
        let seed = 1;
        let fnet = FlowNetwork::build(
            &spec,
            &table,
            &Pattern::Permutation,
            seed,
            FlowRouting::EcmpSplit,
        );
        // Expected: re-resolve the permutation and count severed pairs.
        let resolved = crate::traffic::resolve(&Pattern::Permutation, &spec, seed);
        let map = resolved.dest.as_ref().unwrap();
        let mut active = 0u64;
        let mut severed = 0u64;
        for (src, &dst) in map.iter().enumerate() {
            if dst == src as u32 {
                continue;
            }
            active += 1;
            if !table.is_reachable(src as u32, dst) {
                severed += 1;
            }
        }
        assert_eq!(fnet.unroutable(), severed);
        assert_eq!(fnet.num_flows() as u64, active - severed);
    }

    #[test]
    fn same_router_flows_deliver_at_full_rate() {
        // BitShuffle on path(2) with 4 endpoints per router (3 bits):
        // 1→2, 2→4, 3→6, 4→1, 5→3, 6→5; endpoints 0 and 7 are rotation
        // fixed points (inactive). Flows 1→2 and 6→5 never leave their
        // router: NIC links only, delivered at full rate and counted.
        let spec = NetworkSpec::uniform("p2x4", Graph::path(2), 4);
        let table = RouteTable::for_spec(&spec);
        let fnet = FlowNetwork::build(
            &spec,
            &table,
            &Pattern::BitShuffle,
            0,
            FlowRouting::EcmpSplit,
        );
        assert_eq!(fnet.num_flows(), 6);
        assert_eq!(fnet.unroutable(), 0);
        // Cross-router flows pair up on each link direction (rate 1/2 at
        // full offered load); same-router flows keep rate 1.0.
        let rates = fnet.rates(1.0);
        assert_eq!(rates, vec![1.0, 0.5, 0.5, 0.5, 0.5, 1.0]);
        let r = fnet.solve(1.0);
        assert_eq!(r.flows, 6);
        assert_eq!(r.min_rate, 0.5);
        assert!(!r.stable);
        assert!((r.delivered_fraction - 4.0 / 6.0).abs() < 1e-12, "{r:?}");
    }

    #[test]
    fn mismatched_oracle_and_graph_mark_flows_unroutable() {
        // The oracle routes on the 4-cycle, but the spec graph is
        // missing edge (1,2) — oracle paths cross a nonexistent edge.
        // This used to panic via `expect("path follows edges")` /
        // `expect("hop follows edge")`; now the flow is unroutable.
        let cycle_spec = NetworkSpec::uniform("c4", Graph::cycle(4), 1);
        let table = RouteTable::for_spec(&cycle_spec);
        let broken = NetworkSpec::uniform(
            "c4-broken",
            Graph::from_edges(4, &[(0, 1), (2, 3), (3, 0)]),
            1,
        );
        for routing in [FlowRouting::EcmpSplit, FlowRouting::SinglePath] {
            // BitReverse on 4 endpoints: flows 1→2 and 2→1, both of
            // whose oracle paths use the missing edge.
            let fnet = FlowNetwork::build(&broken, &table, &Pattern::BitReverse, 0, routing);
            assert_eq!(fnet.unroutable(), 2, "{}", routing.label());
            assert_eq!(fnet.num_flows(), 0, "{}", routing.label());
        }
    }

    #[test]
    fn weighted_demands_get_weighted_max_min_shares() {
        // Same BitShuffle traffic as the same-router test, but endpoint
        // 2's flow (2→4) demands 3× the baseline. The forward link
        // carries weight 3 + 1, so it saturates at offered 1/4 and
        // splits 3:1 between the two flows crossing it.
        let spec = NetworkSpec::uniform("p2x4", Graph::path(2), 4);
        let table = RouteTable::for_spec(&spec);
        let mut w = vec![1.0; 8];
        w[2] = 3.0;
        let comps = [TrafficComponent::with_demand(
            Pattern::BitShuffle,
            0,
            FlowDemand::PerSource(w),
        )];
        let plan = FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit);
        // 6 flows over 4 unique router pairs: (0,0), (0,1), (1,0), (1,1).
        assert_eq!(plan.flows().len(), 6);
        assert_eq!(plan.num_pairs(), 4);
        let fnet = plan.network();
        assert_eq!(fnet.num_flows(), 6);
        assert_eq!(fnet.saturation_load(), 0.25);
        let rates = fnet.rates(1.0);
        assert_eq!(rates, vec![1.0, 0.75, 0.25, 0.5, 0.5, 1.0]);
        let r = fnet.solve(1.0);
        assert!(!r.stable);
        assert_eq!(r.min_rate, 0.25);
        // Σ rates / Σ demands = 4 / 8.
        assert!((r.delivered_fraction - 0.5).abs() < 1e-12, "{r:?}");
        // At the saturation load every weighted demand is exactly met.
        let rb = fnet.solve(0.25);
        assert!(rb.stable, "{rb:?}");
        assert_eq!(rb.delivered_fraction, 1.0);
    }

    #[test]
    fn background_overlay_scales_unit_load() {
        // A half-intensity background copy of the foreground pattern
        // doubles the flow count and scales every link load by 1.5×.
        let spec = NetworkSpec::uniform("p2x4", Graph::path(2), 4);
        let table = RouteTable::for_spec(&spec);
        let base = [TrafficComponent::new(Pattern::BitShuffle, 0)];
        let overlay = [
            TrafficComponent::new(Pattern::BitShuffle, 0),
            TrafficComponent::with_demand(Pattern::BitShuffle, 0, FlowDemand::Scaled(0.5)),
        ];
        let plain = FlowPlan::build(&spec, &table, &base, FlowRouting::EcmpSplit).network();
        let both = FlowPlan::build(&spec, &table, &overlay, FlowRouting::EcmpSplit).network();
        assert_eq!(both.num_flows(), 2 * plain.num_flows());
        assert!(both.demands().is_some() && plain.demands().is_none());
        for l in 0..both.num_links() {
            assert!(
                (both.unit_load[l] - 1.5 * plain.unit_load[l]).abs() < 1e-12,
                "link {l}"
            );
        }
        assert!((both.saturation_load() - plain.saturation_load() / 1.5).abs() < 1e-12);
    }

    /// A flat table served the other way a backend can serve it: the
    /// per-query answers delegated, plus the bulk distance column and
    /// mask, so a plan walks ECMP DAGs off columns and takes the
    /// provided `path` rule instead of the table's own walk.
    struct Columns<'a>(&'a RouteTable);

    impl PathOracle for Columns<'_> {
        fn num_routers(&self) -> usize {
            self.0.n()
        }

        fn distance(&self, src: u32, dst: u32) -> Result<u32, polarstar_topo::oracle::RouteError> {
            PathOracle::distance(self.0, src, dst)
        }

        fn min_next_hops(
            &self,
            src: u32,
            dst: u32,
            out: &mut Vec<u32>,
        ) -> Result<(), polarstar_topo::oracle::RouteError> {
            self.0.min_next_hops(src, dst, out)
        }

        fn distance_column(&self, dst: u32, out: &mut Vec<u32>) -> Option<&FaultMask> {
            out.clear();
            out.extend(
                (0..self.0.n() as u32).map(|v| match self.0.distance(v, dst) {
                    RouteTable::UNREACHABLE => u32::MAX,
                    d => u32::from(d),
                }),
            );
            Some(self.0.mask())
        }
    }

    #[test]
    fn column_build_matches_per_query_build() {
        // The in-crate cross-backend check (the analytic-vs-table matrix
        // lives in crates/routed/tests): the column walk and the
        // per-query walk must give equal networks, pristine and masked.
        use polarstar::design::{PolarStarConfig, SupernodeKind};
        use polarstar::network::PolarStarNetwork;
        let cfg = PolarStarConfig {
            q: 3,
            supernode: SupernodeKind::InductiveQuad { degree: 3 },
        };
        let specs = [
            NetworkSpec::uniform("ring5", Graph::cycle(5), 3),
            NetworkSpec::uniform("k4", Graph::complete(4), 4),
            PolarStarNetwork::build(cfg, 2).unwrap().spec,
        ];
        for spec in &specs {
            let pristine = RouteTable::for_spec(spec);
            let faults = FaultSet::random_links(&spec.graph, 0.1, 3);
            for (mask, table) in [
                ("pristine", pristine.clone()),
                ("masked", pristine.remask(spec, &faults)),
            ] {
                for pattern in [
                    Pattern::Uniform,
                    Pattern::Permutation,
                    Pattern::BitShuffle,
                    Pattern::BitReverse,
                ] {
                    for routing in [FlowRouting::EcmpSplit, FlowRouting::SinglePath] {
                        let comps = [TrafficComponent::new(pattern.clone(), 11)];
                        let queried = FlowPlan::build(spec, &table, &comps, routing).network();
                        let columns =
                            FlowPlan::build(spec, &Columns(&table), &comps, routing).network();
                        let label = format!(
                            "{} {mask} {} {}",
                            spec.name,
                            pattern.label(),
                            routing.label()
                        );
                        assert!(queried == columns, "{label}");
                        assert_eq!(queried.solve(0.8), columns.solve(0.8), "{label}");
                    }
                }
            }
        }
        // PS-IQ at 40 endpoints a router: ≈ 40 pairs a destination, at
        // least its degree (15), so the column walk reads distance-2
        // routers off the destination-side parent masks.
        let spec = PolarStarNetwork::build(polarstar::design::best_config(15).unwrap(), 40)
            .unwrap()
            .spec;
        let g = &spec.graph;
        let one_way = FaultSet::random_links(g, 0.05, 6);
        let one_way = one_way
            .failed_links()
            .iter()
            .copied()
            .filter(|&(u, v)| u < v);
        let pristine = RouteTable::for_spec(&spec);
        let comps = [TrafficComponent::new(Pattern::Uniform, 11)];
        for (label, faults) in [
            ("links", FaultSet::random_links(g, 0.05, 5)),
            ("one-way links", FaultSet::from_directed_links(one_way)),
            ("routers", FaultSet::random_routers(g, 0.02, 7)),
        ] {
            let table = pristine.remask(&spec, &faults);
            let queried = FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit).network();
            let columns =
                FlowPlan::build(&spec, &Columns(&table), &comps, FlowRouting::EcmpSplit).network();
            assert!(queried == columns, "PS-IQ x40 {label}");
        }
    }

    #[test]
    fn network_shares_the_plan_arena() {
        // A network points into the plan's DAG arena instead of copying
        // it, and counts it once; an epoch walk copies it on write, so
        // the network keeps the DAGs it was built from.
        let spec = NetworkSpec::uniform("ring4x2", Graph::cycle(4), 2);
        let table = RouteTable::for_spec(&spec);
        let comps = [TrafficComponent::new(Pattern::Uniform, 5)];
        let mut plan = FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit);
        let fnet = plan.network();
        assert!(Arc::ptr_eq(&plan.arena, &fnet.arena));
        let dag_entries = plan.arena.len();
        assert!(dag_entries > 0);
        let own = std::mem::size_of::<FlowNetwork>()
            + fnet.flows.capacity() * std::mem::size_of::<FlowHops>()
            + (fnet.link_off.capacity() + fnet.link_flow.capacity()) * 4
            + fnet.unit_load.capacity() * 8;
        assert_eq!(fnet.memory_bytes(), own + dag_entries * 8);
        let faults = FaultSet::from_links([(0, 1)]);
        let masked = table.remask(&spec, &faults);
        assert!(plan.advance_epoch(&spec, &masked, &FaultSet::empty(), &faults) > 0);
        assert!(!Arc::ptr_eq(&plan.arena, &fnet.arena));
        assert_eq!(fnet.arena.len(), dag_entries);
        assert!(fnet == FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit).network());
    }

    #[test]
    #[should_panic(
        expected = "flow network link incidences: 4294967298 exceeds the u32::MAX = 4294967295 cap"
    )]
    fn incidences_past_u32_panic_instead_of_wrapping() {
        // Two flows whose runs alone fill half the u32 range each: the
        // transpose's offsets would wrap, so the count must refuse.
        let half = FlowHops {
            inject: 0,
            eject: 0,
            start: 0,
            len: u32::MAX / 2,
        };
        incidences(&[half, half]);
    }

    #[test]
    fn epoch_advance_matches_fresh_build() {
        use polarstar_topo::fault::FaultSet;
        // Walk a fault schedule: monotone symmetric growth (cached-DAG
        // reuse path), a monotone step with a one-direction failure
        // (asymmetry fallback), then a recovery (full re-route).
        let spec = NetworkSpec::uniform("ring4x2", Graph::cycle(4), 2);
        let pristine = RouteTable::for_spec(&spec);
        let comps = [TrafficComponent::new(Pattern::BitReverse, 0)];
        let epochs = [
            FaultSet::empty(),
            FaultSet::from_links([(0, 1)]),
            FaultSet::from_links([(0, 1), (2, 3)]),
            FaultSet::from_links([(0, 1), (2, 3)]).union(&FaultSet::from_directed_links([(1, 2)])),
            FaultSet::from_links([(2, 3)]),
        ];
        for routing in [FlowRouting::EcmpSplit, FlowRouting::SinglePath] {
            let mut plan = FlowPlan::build(&spec, &pristine, &comps, routing);
            let mut prev = FaultSet::empty();
            for fs in &epochs {
                let oracle = pristine.remask(&spec, fs);
                plan.advance_epoch(&spec, &oracle, &prev, fs);
                let fresh = FlowPlan::build(&spec, &oracle, &comps, routing);
                assert!(
                    plan.network() == fresh.network(),
                    "{} diverged at epoch {fs:?}",
                    routing.label()
                );
                prev = fs.clone();
            }
        }
    }

    #[test]
    fn epoch_advance_reroutes_only_dirty_pairs() {
        use polarstar_topo::fault::FaultSet;
        // BitReverse on cycle(4)×2 endpoints yields only opposite-router
        // pairs (0,2), (1,3), (2,0), (3,1). Failing (0,1) touches the
        // ring arms of all four; failing nothing new re-routes nothing.
        let spec = NetworkSpec::uniform("ring4x2", Graph::cycle(4), 2);
        let pristine = RouteTable::for_spec(&spec);
        let comps = [TrafficComponent::new(Pattern::BitReverse, 0)];
        let mut plan = FlowPlan::build(&spec, &pristine, &comps, FlowRouting::EcmpSplit);
        let f1 = FaultSet::from_links([(0, 1)]);
        let oracle = pristine.remask(&spec, &f1);
        let rerouted = plan.advance_epoch(&spec, &oracle, &FaultSet::empty(), &f1);
        assert!(rerouted >= 1 && rerouted <= plan.num_pairs(), "{rerouted}");
        // No-op epoch transition re-routes nothing.
        assert_eq!(plan.advance_epoch(&spec, &oracle, &f1, &f1), 0);
    }

    #[test]
    fn long_epoch_walk_matches_fresh_builds_and_bounds_the_arena() {
        use polarstar::design::{PolarStarConfig, SupernodeKind};
        use polarstar::network::PolarStarNetwork;
        use polarstar_topo::fault::FaultSet;
        // The 104-router PolarStar, walked through twelve epochs:
        // monotone growth (cached-DAG reuse, dead runs pile up in the
        // arena), a one-way fault and its recovery (full re-routes),
        // a dead router, a recovery to pristine, and growth again.
        let cfg = PolarStarConfig {
            q: 3,
            supernode: SupernodeKind::InductiveQuad { degree: 3 },
        };
        let spec = PolarStarNetwork::build(cfg, 4).unwrap().spec;
        let g = &spec.graph;
        let links = |fraction| FaultSet::random_links(g, fraction, 4);
        let one_way = FaultSet::random_links(g, 0.02, 5);
        let one_way = one_way
            .failed_links()
            .iter()
            .copied()
            .filter(|&(u, v)| u < v);
        let one_way = FaultSet::from_directed_links(one_way);
        let schedule = [
            links(0.02),
            links(0.05),
            links(0.10),
            links(0.15),
            links(0.15).union(&one_way),
            links(0.15),
            links(0.05),
            links(0.10),
            links(0.20),
            links(0.20).union(&FaultSet::from_routers([50])),
            FaultSet::empty(),
            links(0.10),
        ];
        let pristine = RouteTable::for_spec(&spec);
        let comps = [TrafficComponent::new(Pattern::Uniform, 2)];
        for routing in [FlowRouting::EcmpSplit, FlowRouting::SinglePath] {
            let mut plan = FlowPlan::build(&spec, &pristine, &comps, routing);
            let mut prev = FaultSet::empty();
            let mut repacks = 0;
            for (step, fs) in schedule.iter().enumerate() {
                let oracle = pristine.remask(&spec, fs);
                let before = plan.arena.len();
                let rerouted = plan.advance_epoch(&spec, &oracle, &prev, fs);
                let fresh = FlowPlan::build(&spec, &oracle, &comps, routing);
                let label = format!("{} step {step}", routing.label());
                assert!(plan.network() == fresh.network(), "{label}: diverged");
                let live: usize = (0..plan.num_pairs())
                    .filter_map(|i| plan.dag(i))
                    .map(<[_]>::len)
                    .sum();
                assert!(
                    plan.arena.len() <= 2 * live,
                    "{label}: arena {} for {live} live",
                    plan.arena.len()
                );
                if rerouted < plan.num_pairs() && plan.arena.len() < before {
                    repacks += 1;
                }
                prev = fs.clone();
            }
            if routing == FlowRouting::EcmpSplit {
                assert!(repacks > 0, "the walk never repacked the arena");
            }
        }
    }

    #[test]
    #[should_panic(expected = "FlowDemand::PerSource has 7 weights but p2x4 has 8 endpoints")]
    fn per_source_weights_short_of_the_endpoints_panic() {
        let spec = NetworkSpec::uniform("p2x4", Graph::path(2), 4);
        let table = RouteTable::for_spec(&spec);
        let demand = FlowDemand::PerSource(vec![1.0; 7]);
        let comps = [TrafficComponent::with_demand(
            Pattern::BitShuffle,
            0,
            demand,
        )];
        FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit);
    }

    #[test]
    #[should_panic(expected = "FlowDemand::PerSource has 9 weights but p2x4 has 8 endpoints")]
    fn per_source_weights_beyond_the_endpoints_panic() {
        // Weights meant for a larger spec used to be accepted silently.
        let spec = NetworkSpec::uniform("p2x4", Graph::path(2), 4);
        let table = RouteTable::for_spec(&spec);
        let demand = FlowDemand::PerSource(vec![1.0; 9]);
        let comps = [TrafficComponent::with_demand(
            Pattern::BitShuffle,
            0,
            demand,
        )];
        FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// The pair index of a multi-component plan: `pairs()` is
        /// strictly sorted (so unique), and every planned flow points at
        /// the pair of its own endpoints' routers.
        #[test]
        fn pair_index_is_sorted_and_points_at_each_flows_routers(
            n in 2usize..40,
            seed in 0u64..10_000,
            endpoints in proptest::prelude::prop::collection::vec(0u32..4, 40..41),
            scale in 1u32..8,
        ) {
            let g = polarstar_graph::random::gnm(n, (2 * n).min(n * (n - 1) / 2), seed);
            let spec = NetworkSpec::new("g", g, endpoints[..n].to_vec(), (0..n as u32).collect());
            let table = RouteTable::for_spec(&spec);
            let comps = [
                TrafficComponent::new(Pattern::Permutation, seed),
                TrafficComponent::with_demand(Pattern::Uniform, seed ^ 1, FlowDemand::Scaled(f64::from(scale) / 4.0)),
            ];
            let plan = FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit);
            let pairs = plan.pairs();
            proptest::prop_assert!(pairs.windows(2).all(|w| w[0] < w[1]), "{pairs:?}");
            for f in plan.flows() {
                let rs = spec.endpoint_router(f.src_ep as usize).0;
                let rd = spec.endpoint_router(f.dst_ep as usize).0;
                proptest::prop_assert_eq!(pairs[f.pair as usize], (rs, rd));
            }
        }

        /// What max-min fairness means, checked on the solve itself
        /// rather than by equality with another builder: capacities
        /// hold, `link_utilization` is what `rates` put on each link,
        /// and every flow short of its demand crosses a saturated link
        /// on which no flow gets a larger share of its demand — so no
        /// flow can be raised without lowering one that has no more.
        #[test]
        fn solve_is_weighted_max_min_fair(
            n in 3usize..24,
            density in 2usize..6,
            p in 1u32..4,
            seed in 0u64..10_000,
            load in 0usize..4,
            single in 0u8..2,
        ) {
            let m = (n * density / 2).min(n * (n - 1) / 2);
            let g = polarstar_graph::random::gnm(n, m, seed);
            let faults = FaultSet::random_links(&g, 0.05, seed);
            let spec = NetworkSpec::uniform("g", g, p).with_faults(faults);
            let table = RouteTable::for_spec(&spec);
            let weights: Vec<f64> = (0..spec.total_endpoints() as u64)
                .map(|e| 0.5 + ((e.wrapping_mul(0x9e37_79b9) ^ seed) % 7) as f64 * 0.5)
                .collect();
            let comps = [
                TrafficComponent::with_demand(Pattern::Uniform, seed, FlowDemand::PerSource(weights)),
                TrafficComponent::with_demand(Pattern::Permutation, seed ^ 1, FlowDemand::Scaled(0.5)),
            ];
            let routing = if single == 1 { FlowRouting::SinglePath } else { FlowRouting::EcmpSplit };
            let fnet = FlowPlan::build(&spec, &table, &comps, routing).network();
            let offered = [0.1, 0.35, 0.7, 1.0][load];
            let rates = fnet.rates(offered);
            let util = fnet.link_utilization(offered);
            let mut expect = vec![0f64; fnet.num_links()];
            for (f, &rate) in rates.iter().enumerate() {
                fnet.hops(f).for_each(|(l, w)| expect[l as usize] += f64::from(w) * rate);
            }
            for (l, (&u, &e)) in util.iter().zip(&expect).enumerate() {
                proptest::prop_assert!(u <= 1.0 + 1e-9, "link {l} over capacity: {u}");
                proptest::prop_assert!((u - e).abs() < 1e-9, "link {l}: {u} vs {e} from rates");
            }
            let ratio = |f: usize| rates[f] / fnet.demand_of(f);
            for f in 0..fnet.num_flows() {
                if ratio(f) >= offered * (1.0 - 1e-9) {
                    continue;
                }
                let bottleneck = fnet.hops(f).map(|(l, _)| l as usize).any(|l| {
                    let sharers = &fnet.link_flow[fnet.link_off[l] as usize..fnet.link_off[l + 1] as usize];
                    util[l] >= 1.0 - 1e-9 && sharers.iter().all(|&h| ratio(h as usize) <= ratio(f) * (1.0 + 1e-9))
                });
                proptest::prop_assert!(bottleneck, "flow {f} at {} of its demand has no bottleneck", ratio(f) / offered);
            }
        }
    }
}
