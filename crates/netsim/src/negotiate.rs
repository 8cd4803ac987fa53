//! Offline congestion-negotiated routing: PathFinder-style rip-up and
//! re-route over a [`FlowPlan`]'s unique router pairs.
//!
//! Given a traffic matrix (a [`FlowPlan`] built against any
//! [`PathOracle`]), [`NegotiatedRoutes::negotiate`] repeatedly re-routes
//! each `(src_router, dst_router)` pair through its diameter-≤3 minimal
//! path set, charging every candidate path
//!
//! ```text
//! cost = Σ over links  (base + present-overuse + historic congestion)
//! ```
//!
//! until no link carries more weighted demand than the capacity target
//! or an iteration cap hits. Present overuse prices what routing through
//! a link *right now* would overload; historic cost accumulates on links
//! that keep ending iterations overused, so persistent conflicts stay
//! expensive even when momentarily resolved — the PathFinder mechanism
//! that lets contention negotiate itself apart instead of oscillating.
//! The capacity target starts at the fluid lower bound (max pair weight
//! vs. average minimal-hop load) and escalates geometrically until the
//! negotiation converges.
//!
//! Every step is a pure function of `(seed, iteration)`: candidate
//! enumeration fans out over rayon but is collected in pair order, and
//! the negotiation loop itself is strictly sequential with a
//! splitmix64-keyed visit order per iteration — byte-identical results
//! at any `RAYON_NUM_THREADS` width.
//!
//! The converged assignment implements [`PathOracle`], answering each
//! negotiated pair with its single chosen path: the flow solver can
//! re-materialize a [`FlowNetwork`](crate::flow::FlowNetwork) over it
//! via [`FlowRouting::SinglePath`](crate::flow::FlowRouting). That is
//! the one consumer: the assignment is a flow-level study of how far
//! below MIN an offline single-path routing can push the max link load,
//! not a cycle-engine routing scheme.

use crate::engine::splitmix64;
use crate::flow::FlowPlan;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::oracle::{PathOracle, RouteError};
use rayon::prelude::*;

/// Relative tolerance on the capacity comparison — keeps float noise
/// from Σ-of-demand accumulation out of the convergence decision.
const CAP_EPS: f64 = 1e-9;

/// Capacity escalations (×1.25 each) tried before giving up.
const MAX_ESCALATIONS: u32 = 40;

/// Negotiation iterations per capacity target before it is escalated.
const MAX_ITERATIONS: u32 = 64;

/// Candidate minimal paths enumerated per pair
/// ([`PathOracle::k_paths`], lexicographic first-k).
const K_PATHS: usize = 8;

/// Hop ceiling for non-minimal detour candidates: for every source
/// neighbor `u`, the path `src → u → minimal(u, dst)` is also a
/// candidate when its hop count stays within `max(DETOUR_HOPS, minimal
/// distance)`. 3 is the paper's diameter bound — adversarial traffic
/// whose pairs have a *unique* minimal path (the whole point of §9.6's
/// pattern) gets routable alternatives only through these.
const DETOUR_HOPS: usize = 3;

/// Weight of the present-overuse term relative to the base cost.
const PRESENT_WEIGHT: f64 = 4.0;

/// Historic cost added per unit of relative overuse per iteration.
const HISTORIC_WEIGHT: f64 = 1.0;

/// One candidate path of a pair: its router sequence and the directed
/// graph-edge ids (CSR slots) it crosses.
struct Cand {
    nodes: Vec<u32>,
    edges: Vec<u32>,
}

/// A converged (or capped-out) negotiated route assignment: one chosen
/// path per routable `(src_router, dst_router)` pair of the traffic
/// matrix plus the per-link load the negotiation ended with.
///
/// `PartialEq` is exact — determinism tests compare whole tables across
/// rayon widths and rebuilds.
#[derive(Clone, Debug, PartialEq)]
pub struct NegotiatedRoutes {
    n_routers: usize,
    /// The traffic matrix's unique router pairs, sorted
    /// lexicographically (copied from [`FlowPlan::pairs`]).
    pairs: Vec<(u32, u32)>,
    /// CSR offsets into `path_node` (len `pairs + 1`); an empty run
    /// marks a pair the oracle could not route.
    path_off: Vec<u32>,
    /// Chosen path router sequences, concatenated.
    path_node: Vec<u32>,
    /// Final weighted demand per directed link.
    load: Vec<f64>,
    capacity: f64,
    converged: bool,
    iterations: u32,
    /// Max link load before iteration 1 and after each iteration.
    curve: Vec<f64>,
}

impl NegotiatedRoutes {
    /// Negotiate a route assignment for `plan`'s traffic matrix over
    /// `oracle`'s path set; `seed` keys the per-iteration pair visit
    /// order (and nothing else). Pure function of its arguments: rayon
    /// is used only for order-preserving candidate enumeration, so the
    /// result is byte-identical at any thread count. A pair naming a
    /// router `spec` does not have (a plan built on a larger network)
    /// is left unrouted.
    pub fn negotiate<O: PathOracle + Sync>(
        spec: &NetworkSpec,
        oracle: &O,
        plan: &FlowPlan,
        seed: u64,
    ) -> NegotiatedRoutes {
        let n = spec.graph.n();
        let m = spec.graph.directed_edge_count();

        let pairs: Vec<(u32, u32)> = plan.pairs().to_vec();
        let mut weight = vec![0.0f64; pairs.len()];
        for f in plan.flows() {
            weight[f.pair as usize] += f.demand;
        }

        // Candidate enumeration fans out over rayon; `collect` keeps
        // pair order, so the fan-out width never shows in the result.
        let cand_nodes: Vec<Vec<Vec<u32>>> = pairs
            .par_iter()
            .map(|&(rs, rd)| {
                if rs.max(rd) as usize >= n {
                    return Vec::new();
                }
                if rs == rd {
                    return vec![vec![rs]];
                }
                let mut cs = oracle.k_paths(rs, rd, K_PATHS).unwrap_or_default();
                let Some(min_hops) = cs.first().map(|p| p.len() - 1) else {
                    return cs;
                };
                // Diameter-bounded detours: one candidate per source
                // neighbor, `rs → u → minimal(u, rd)`. These are the only
                // alternatives a pair with a unique minimal path has, and
                // the neighbor-index enumeration keeps them deterministic.
                let max_hops = DETOUR_HOPS.max(min_hops);
                for &u in spec.graph.neighbors(rs) {
                    if u == rd || u == rs {
                        continue;
                    }
                    let Ok(tail) = oracle.path(u, rd) else {
                        continue;
                    };
                    if tail.len() > max_hops || tail.contains(&rs) {
                        continue;
                    }
                    let mut path = Vec::with_capacity(tail.len() + 1);
                    path.push(rs);
                    path.extend_from_slice(&tail);
                    if !cs.contains(&path) {
                        cs.push(path);
                    }
                }
                cs
            })
            .collect();
        // Attach edge ids; a candidate crossing an edge the graph does
        // not know (oracle/graph mismatch) is dropped, mirroring the
        // flow build's unroutable handling.
        let cands: Vec<Vec<Cand>> = cand_nodes
            .into_iter()
            .map(|cs| {
                cs.into_iter()
                    .filter_map(|p| {
                        let edges: Option<Vec<u32>> = p
                            .windows(2)
                            .map(|w| spec.graph.edge_id(w[0], w[1]))
                            .collect();
                        edges.map(|edges| Cand { nodes: p, edges })
                    })
                    .collect()
            })
            .collect();

        // Initial assignment: every pair on its lexicographically first
        // minimal path (the MIN single-path baseline).
        let mut assign: Vec<u32> = vec![0; cands.len()];
        let mut load = vec![0.0f64; m];
        let mut historic = vec![0.0f64; m];
        for (i, cs) in cands.iter().enumerate() {
            if let Some(c) = cs.first() {
                for &e in &c.edges {
                    load[e as usize] += weight[i];
                }
            }
        }
        // Only pairs with a real choice are visited by the loop;
        // single-candidate pairs can never move.
        let active: Vec<u32> = (0..cands.len() as u32)
            .filter(|&i| cands[i as usize].len() > 1)
            .collect();

        let max_load = |load: &[f64]| load.iter().copied().fold(0.0f64, f64::max);
        // Fluid lower bound: no assignment beats the heavier of the
        // largest unsplittable pair and the average minimal-hop load.
        let mut min_hop_weight = 0.0f64;
        let mut max_pair = 0.0f64;
        for (i, cs) in cands.iter().enumerate() {
            if let Some(min_hops) = cs.iter().map(|c| c.edges.len()).min() {
                min_hop_weight += weight[i] * min_hops as f64;
                if min_hops > 0 {
                    max_pair = max_pair.max(weight[i]);
                }
            }
        }
        let lower = (min_hop_weight / m.max(1) as f64).max(max_pair);
        let mut capacity = lower.max(f64::MIN_POSITIVE);

        let mut curve = vec![max_load(&load)];
        let mut iterations = 0u32;
        let mut converged = curve[0] <= capacity * (1.0 + CAP_EPS);
        let mut order = active;
        'outer: for _ in 0..MAX_ESCALATIONS {
            for _ in 0..MAX_ITERATIONS {
                if converged {
                    break 'outer;
                }
                let iter_seed = splitmix64(seed ^ (iterations as u64 + 1));
                order.sort_unstable_by_key(|&i| (splitmix64(iter_seed ^ i as u64), i));
                for &i in &order {
                    let i = i as usize;
                    let w = weight[i];
                    let cs = &cands[i];
                    for &e in &cs[assign[i] as usize].edges {
                        load[e as usize] -= w;
                    }
                    let mut best = 0usize;
                    let mut best_cost = f64::INFINITY;
                    for (c, cand) in cs.iter().enumerate() {
                        let mut cost = 0.0;
                        for &e in &cand.edges {
                            let e = e as usize;
                            let over = (load[e] + w - capacity).max(0.0);
                            cost += 1.0 + PRESENT_WEIGHT * (over / capacity) + historic[e];
                        }
                        // Strict improvement keeps the earliest candidate
                        // on ties — a stable, seed-free tie-break.
                        if cost + 1e-12 < best_cost {
                            best_cost = cost;
                            best = c;
                        }
                    }
                    assign[i] = best as u32;
                    for &e in &cs[best].edges {
                        load[e as usize] += w;
                    }
                }
                iterations += 1;
                let ml = max_load(&load);
                curve.push(ml);
                if ml <= capacity * (1.0 + CAP_EPS) {
                    converged = true;
                    break 'outer;
                }
                for e in 0..m {
                    let over = load[e] - capacity;
                    if over > 0.0 {
                        historic[e] += HISTORIC_WEIGHT * (over / capacity);
                    }
                }
            }
            capacity *= 1.25;
            if max_load(&load) <= capacity * (1.0 + CAP_EPS) {
                converged = true;
                break;
            }
        }

        let mut path_off = Vec::with_capacity(pairs.len() + 1);
        path_off.push(0u32);
        let mut path_node = Vec::new();
        for (i, cs) in cands.iter().enumerate() {
            if let Some(c) = cs.get(assign[i] as usize) {
                path_node.extend_from_slice(&c.nodes);
            }
            path_off.push(path_node.len() as u32);
        }

        NegotiatedRoutes {
            n_routers: n,
            pairs,
            path_off,
            path_node,
            load,
            capacity,
            converged,
            iterations,
            curve,
        }
    }

    /// The traffic matrix's unique router pairs, sorted.
    pub fn pairs(&self) -> &[(u32, u32)] {
        &self.pairs
    }

    /// Number of negotiated pairs.
    pub fn num_pairs(&self) -> usize {
        self.pairs.len()
    }

    /// Index of `(src, dst)` in [`Self::pairs`], if it is part of the
    /// negotiated traffic matrix.
    pub fn pair_index(&self, src: u32, dst: u32) -> Option<usize> {
        self.pairs.binary_search(&(src, dst)).ok()
    }

    /// Chosen router path of pair `i` (empty if the oracle could not
    /// route it; `[r]` for a same-router pair).
    pub fn path_of(&self, i: usize) -> &[u32] {
        &self.path_node[self.path_off[i] as usize..self.path_off[i + 1] as usize]
    }

    /// The capacity target the negotiation ended on (the fluid lower
    /// bound, escalated until it held).
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Whether the final assignment has no link over capacity.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Negotiation iterations performed (across all capacity targets).
    pub fn iterations(&self) -> u32 {
        self.iterations
    }

    /// Max weighted link load of the final assignment.
    pub fn max_link_load(&self) -> f64 {
        self.load.iter().copied().fold(0.0, f64::max)
    }

    /// Links whose final load exceeds the capacity target — zero
    /// whenever [`Self::converged`] holds.
    pub fn overused_links(&self) -> usize {
        self.load
            .iter()
            .filter(|&&l| l > self.capacity * (1.0 + CAP_EPS))
            .count()
    }

    /// Max link load before iteration 1 and after each iteration — the
    /// convergence trajectory.
    pub fn curve(&self) -> &[f64] {
        &self.curve
    }

    fn check(&self, id: u32) -> Result<(), RouteError> {
        if (id as usize) < self.n_routers {
            Ok(())
        } else {
            Err(RouteError::OutOfRange {
                id,
                routers: self.n_routers as u32,
            })
        }
    }
}

/// The negotiated assignment as a routing backend. Unlike the global
/// oracles it answers **only for the negotiated traffic matrix**: a pair
/// outside [`NegotiatedRoutes::pairs`] (or one the underlying oracle
/// could not route) is `Unreachable`, and `distance` reports the chosen
/// path's hop count, which may exceed the minimal distance when the
/// negotiation detoured the pair.
impl PathOracle for NegotiatedRoutes {
    fn num_routers(&self) -> usize {
        self.n_routers
    }

    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Ok(0);
        }
        match self.pair_index(src, dst) {
            Some(i) if self.path_of(i).len() >= 2 => Ok((self.path_of(i).len() - 1) as u32),
            _ => Err(RouteError::Unreachable { src, dst }),
        }
    }

    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Ok(());
        }
        match self.pair_index(src, dst) {
            Some(i) if self.path_of(i).len() >= 2 => {
                out.push(self.path_of(i)[1]);
                Ok(())
            }
            _ => Err(RouteError::Unreachable { src, dst }),
        }
    }

    fn path(&self, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Ok(vec![src]);
        }
        match self.pair_index(src, dst) {
            Some(i) if self.path_of(i).len() >= 2 => Ok(self.path_of(i).to_vec()),
            _ => Err(RouteError::Unreachable { src, dst }),
        }
    }

    /// The one negotiated path, for any `k ≥ 1`: the provided walk
    /// would ask `min_next_hops` of pairs past the first hop, which are
    /// not negotiated pairs.
    fn k_paths(&self, src: u32, dst: u32, k: usize) -> Result<Vec<Vec<u32>>, RouteError> {
        let path = self.path(src, dst)?;
        Ok(if k == 0 { Vec::new() } else { vec![path] })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowPlan, FlowRouting, TrafficComponent};
    use crate::routing::RouteTable;
    use crate::traffic::Pattern;
    use polarstar_graph::random::random_regular;

    fn spec24() -> NetworkSpec {
        NetworkSpec::uniform("rr24", random_regular(24, 4, 11).unwrap(), 2)
    }

    fn plan_for(spec: &NetworkSpec, pattern: Pattern, seed: u64) -> (RouteTable, FlowPlan) {
        let table = RouteTable::for_spec(spec);
        let comps = [TrafficComponent::new(pattern, seed)];
        let plan = FlowPlan::build(spec, &table, &comps, FlowRouting::EcmpSplit);
        (table, plan)
    }

    #[test]
    fn negotiation_is_deterministic_across_rebuilds() {
        let spec = spec24();
        let (table, plan) = plan_for(&spec, Pattern::Permutation, 7);
        let a = NegotiatedRoutes::negotiate(&spec, &table, &plan, 0);
        let b = NegotiatedRoutes::negotiate(&spec, &table, &plan, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn converged_means_zero_overuse() {
        let spec = spec24();
        for seed in 0..6u64 {
            let (table, plan) = plan_for(&spec, Pattern::Permutation, seed);
            let neg = NegotiatedRoutes::negotiate(&spec, &table, &plan, seed);
            assert!(neg.converged(), "seed {seed} failed to converge");
            assert_eq!(neg.overused_links(), 0);
            assert!(neg.max_link_load() <= neg.capacity() * (1.0 + 1e-9));
        }
    }

    #[test]
    fn negotiated_load_never_exceeds_min_single_path() {
        let spec = spec24();
        let (table, plan) = plan_for(&spec, Pattern::Permutation, 3);
        let neg = NegotiatedRoutes::negotiate(&spec, &table, &plan, 0);
        // The initial assignment is every pair's first minimal path —
        // the MIN single-path load — and negotiation only accepts the
        // final state, so it can never end worse in converged runs.
        let min_plan = FlowPlan::build(&spec, &table, plan_components(), FlowRouting::SinglePath);
        let min_load = min_plan.network().max_net_unit_load();
        assert!(
            neg.max_link_load() <= min_load * (1.0 + 1e-9),
            "negotiated {} > MIN {min_load}",
            neg.max_link_load()
        );

        // Re-materializing a single-path flow network over the
        // negotiated oracle reproduces its own load accounting.
        let neg_net =
            FlowPlan::build(&spec, &neg, plan_components(), FlowRouting::SinglePath).network();
        let rel = (neg_net.max_net_unit_load() - neg.max_link_load()).abs()
            / neg.max_link_load().max(1e-12);
        assert!(rel < 1e-9, "flow network disagrees: rel err {rel}");
    }

    fn plan_components() -> &'static [TrafficComponent] {
        use std::sync::OnceLock;
        static COMPS: OnceLock<[TrafficComponent; 1]> = OnceLock::new();
        COMPS.get_or_init(|| [TrafficComponent::new(Pattern::Permutation, 3)])
    }

    #[test]
    fn oracle_answers_only_the_negotiated_matrix() {
        let spec = spec24();
        let (table, plan) = plan_for(&spec, Pattern::Permutation, 1);
        let neg = NegotiatedRoutes::negotiate(&spec, &table, &plan, 0);
        assert_eq!(neg.num_routers(), spec.graph.n());
        let mut multi_hop = 0;
        for i in 0..neg.num_pairs() {
            let (rs, rd) = neg.pairs()[i];
            let p = neg.path_of(i);
            if rs == rd {
                assert_eq!(p, &[rs]);
                assert_eq!(neg.distance(rs, rd).unwrap(), 0);
                continue;
            }
            assert_eq!(p.first(), Some(&rs));
            assert_eq!(p.last(), Some(&rd));
            for w in p.windows(2) {
                assert!(
                    spec.graph.edge_id(w[0], w[1]).is_some(),
                    "negotiated hop {}→{} is not a graph edge",
                    w[0],
                    w[1]
                );
            }
            assert_eq!(neg.path(rs, rd).unwrap(), p);
            assert_eq!(neg.distance(rs, rd).unwrap() as usize, p.len() - 1);
            // Appended after what the buffer held.
            let mut hops = vec![999];
            neg.min_next_hops(rs, rd, &mut hops).unwrap();
            assert_eq!(hops, vec![999, p[1]]);
            for k in [1, 4, usize::MAX] {
                assert_eq!(neg.k_paths(rs, rd, k).unwrap(), vec![p.to_vec()], "k = {k}");
            }
            assert!(neg.k_paths(rs, rd, 0).unwrap().is_empty());
            multi_hop += usize::from(p.len() > 2);
        }
        assert!(multi_hop > 0, "no pair past the first hop was checked");
        // A pair outside the matrix is unreachable; out-of-range ids are
        // typed errors.
        let absent = (0..spec.graph.n() as u32)
            .flat_map(|a| (0..spec.graph.n() as u32).map(move |b| (a, b)))
            .find(|&(a, b)| a != b && neg.pair_index(a, b).is_none());
        if let Some((a, b)) = absent {
            assert!(matches!(
                neg.path(a, b),
                Err(RouteError::Unreachable { .. })
            ));
        }
        assert!(matches!(
            neg.distance(0, u32::MAX),
            Err(RouteError::OutOfRange { .. })
        ));
    }

    #[test]
    fn a_plan_from_a_larger_network_leaves_its_foreign_pairs_unrouted() {
        use polarstar_graph::Graph;

        // K12 table and K12 traffic against a K8 spec: pairs naming
        // routers 8..12 used to index the K8 adjacency out of bounds.
        let big = NetworkSpec::uniform("k12", Graph::complete(12), 2);
        let small = NetworkSpec::uniform("k8", Graph::complete(8), 2);
        let (table, plan) = plan_for(&big, Pattern::Permutation, 1);
        let neg = NegotiatedRoutes::negotiate(&small, &table, &plan, 0);
        assert_eq!(neg.num_routers(), 8);
        let mut foreign = 0;
        for (i, &(rs, rd)) in neg.pairs().iter().enumerate() {
            if rs.max(rd) >= 8 {
                foreign += 1;
                assert!(neg.path_of(i).is_empty(), "pair {rs}→{rd} was routed");
                assert!(neg.path(rs, rd).is_err());
            } else {
                let p = neg.path_of(i);
                assert_eq!((p.first(), p.last()), (Some(&rs), Some(&rd)));
            }
        }
        assert!(foreign > 0);
        // K8's own permutation mostly falls outside the K12 matrix:
        // those pairs are Unreachable to the oracle, unroutable flows.
        let comps = [TrafficComponent::new(Pattern::Permutation, 1)];
        let flows = FlowPlan::build(&small, &neg, &comps, FlowRouting::SinglePath);
        let absent = flows
            .flows()
            .iter()
            .map(|f| flows.pairs()[f.pair as usize])
            .filter(|&(rs, rd)| matches!(neg.path(rs, rd), Err(RouteError::Unreachable { .. })))
            .count() as u64;
        assert!(absent > 0);
        assert_eq!(flows.network().unroutable(), absent);
    }
}
