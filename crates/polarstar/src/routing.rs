//! Analytic minimal-path computation for PolarStar (§9.2).
//!
//! Routers store only factor-graph state — the structure graph's
//! adjacency and 2-path middles, the supernode adjacency, and the
//! bijection f — instead of a per-destination routing table. Two things
//! are computed from that state:
//!
//! * **the distance kernel**, [`AnalyticRouter::distance`]: 1 iff the
//!   routers are product-adjacent, 2 iff a 2-hop template hits, 3
//!   otherwise (Theorems 4/5 bound the diameter by 3). The 2-hop
//!   templates are one enumeration (`two_hop_middle`) over every 2-walk
//!   of the star product (intra–intra, intra–cross, cross–intra,
//!   cross–cross; §9.2 cases (a), (c) and (d) among them). It builds
//!   nothing — no `Vec`, no counter — and is what a serving oracle
//!   probes per neighbor, per query;
//! * **one walk over it**, [`AnalyticRouter::next_hop`] /
//!   [`AnalyticRouter::route`]: the first neighbor (ascending id) the
//!   kernel puts one hop closer, hop after hop. That is §9.2 case (b) in
//!   general form — take one hop, then ride a 2-hop template — and it is
//!   exactly as minimal as the kernel is exact (the tests pin the kernel
//!   to BFS, exhaustively on small IQ and Paley configs and sampled up to
//!   radix 32), so no backstop search exists. The path it yields is the
//!   lexicographically first minimal path, the one every `PathOracle`'s
//!   `path` answers.
//!
//! [`AnalyticRouter::routes_computed`] counts `route` calls only;
//! distance probes are not counted, so a serving workload that never
//! asks for a whole path reads 0.
//!
//! Storage: one flat CSR of O(|V(G)|²) middles (Property R gives each
//! ordered structure pair one middle) + O(|V(G')|) for f⁻¹ — for
//! Table 3's PS-IQ that is ~18 K entries, versus ~1 M entries for a
//! full per-destination next-hop table (§9.3's comparison with SF/BF).

use crate::network::PolarStarNetwork;
use polarstar_topo::er::ErGraph;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Analytic router over a PolarStar network.
///
/// Owns its network behind an [`Arc`], so it can be embedded in
/// long-lived serving structures (oracles, epoch swappers) without
/// self-referential lifetimes; cloning the `Arc` before construction is
/// cheap relative to the middle-list precompute.
///
/// ```
/// use polarstar::{design::best_config, network::PolarStarNetwork};
/// use polarstar::routing::AnalyticRouter;
/// let net = PolarStarNetwork::build(best_config(9).unwrap(), 1).unwrap();
/// let router = AnalyticRouter::new(net.clone());
/// let path = router.route(0, 100);
/// assert!(path.len() <= 3);                 // diameter-3 guarantee
/// assert_eq!(*path.last().unwrap(), 100);
/// assert_eq!(router.distance(0, 100) as usize, path.len());
/// ```
pub struct AnalyticRouter {
    net: Arc<PolarStarNetwork>,
    /// Flat CSR over ordered structure pairs: cell `x·n + y` lists the
    /// structure vertices w completing a ≤2-path x–w–y, where w == x or
    /// w == y encodes a self-loop hop at a quadric vertex.
    middle_off: Vec<u32>,
    middle: Vec<u32>,
    /// Inverse of the supernode bijection.
    finv: Vec<u32>,
    /// Total [`AnalyticRouter::route`] calls.
    route_count: AtomicU64,
}

/// The middle lists of every ordered structure pair as one CSR
/// (`off`, `mid`). Per-cell order: common neighbors ascending, then the
/// self-loop markers x, y (Theorem 1: if x is quadric and adjacent to
/// y, the walk x–x–y exists; likewise at y).
fn flat_middles(er: &ErGraph) -> (Vec<u32>, Vec<u32>) {
    let g = &er.graph;
    let n = g.n();
    // Every (cell, middle) in per-cell order. Common neighbors come from
    // the neighbor pairs of each w — Σ deg² visits instead of n² merges.
    let for_each = |visit: &mut dyn FnMut(usize, u32)| {
        for w in 0..n as u32 {
            for &x in g.neighbors(w) {
                for &y in g.neighbors(w) {
                    if x != y {
                        visit(x as usize * n + y as usize, w);
                    }
                }
            }
        }
        for x in 0..n as u32 {
            for &y in g.neighbors(x) {
                for end in [x, y] {
                    if er.quadric[end as usize] {
                        visit(x as usize * n + y as usize, end);
                    }
                }
            }
        }
    };
    let mut off = vec![0u32; n * n + 1];
    for_each(&mut |cell, _| off[cell + 1] += 1);
    for cell in 0..n * n {
        off[cell + 1] += off[cell];
    }
    let mut mid = vec![0u32; off[n * n] as usize];
    let mut next = off.clone();
    for_each(&mut |cell, w| {
        mid[next[cell] as usize] = w;
        next[cell] += 1;
    });
    (off, mid)
}

impl AnalyticRouter {
    /// Precompute middle lists and f⁻¹.
    pub fn new(net: impl Into<Arc<PolarStarNetwork>>) -> Self {
        let net = net.into();
        let (middle_off, middle) = flat_middles(&net.er);
        let f = &net.supernode.f;
        let mut finv = vec![0u32; f.len()];
        for (a, &b) in f.iter().enumerate() {
            finv[b as usize] = a as u32;
        }
        AnalyticRouter {
            net,
            middle_off,
            middle,
            finv,
            route_count: AtomicU64::new(0),
        }
    }

    /// The network this router answers for.
    pub fn network(&self) -> &Arc<PolarStarNetwork> {
        &self.net
    }

    /// Routes that left the §9.2 templates for a backstop search:
    /// always 0. Routes walk the exact distance kernel, so nothing needs
    /// a backstop; the method stays because the `benchmark/` ledger
    /// reads it (`analytic.fallbacks`).
    pub fn fallbacks(&self) -> u64 {
        0
    }

    /// Total routes materialized by [`AnalyticRouter::route`] so far
    /// ([`AnalyticRouter::distance`] probes are not counted).
    pub fn routes_computed(&self) -> u64 {
        self.route_count.load(Ordering::Relaxed)
    }

    /// Resident bytes of the factor-graph routing state (flat middle
    /// lists, f⁻¹) — the whole per-router storage cost of analytic
    /// routing, compared against `RouteTable::memory_bytes` in the scale
    /// benches.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.middle_off.capacity() + self.middle.capacity() + self.finv.capacity())
                * std::mem::size_of::<u32>()
    }

    /// Structure vertices completing a ≤2-path x–w–y (see `middle_off`).
    #[inline]
    fn middles(&self, x: u32, y: u32) -> &[u32] {
        let cell = x as usize * self.net.er.graph.n() + y as usize;
        &self.middle[self.middle_off[cell] as usize..self.middle_off[cell + 1] as usize]
    }

    /// Supernode coordinate after crossing the structure edge `x → y`
    /// (the star product orients arcs from the smaller endpoint, so the
    /// reverse direction applies f⁻¹). For involutions f = f⁻¹.
    #[inline]
    fn cross(&self, x: u32, y: u32, a: u32) -> u32 {
        if x < y {
            self.net.supernode.f[a as usize]
        } else {
            self.finv[a as usize]
        }
    }

    /// Whether routers `(x, a)` and `(x, b)` are adjacent inside copy x:
    /// a supernode edge, or a quadric self-loop edge a ~ f(a) / f(b) ~ a
    /// (both directions matter when f is not an involution, e.g. Paley).
    #[inline]
    fn copy_adjacent(&self, x: u32, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        self.net.supernode.graph.has_edge(a, b)
            || (self.net.er.quadric[x as usize]
                && (self.net.supernode.f[a as usize] == b || self.net.supernode.f[b as usize] == a))
    }

    /// Neighbors of local coordinate `a` within copy `x`: the supernode
    /// neighbors, then the quadric self-loop partners f(a), f⁻¹(a) not
    /// already among them.
    fn copy_neighbors(&self, x: u32, a: u32) -> impl Iterator<Item = u32> + '_ {
        let nbrs = self.net.supernode.graph.neighbors(a);
        let mut loops = [None; 2];
        if self.net.er.quadric[x as usize] {
            let fresh = |c: u32| c != a && nbrs.binary_search(&c).is_err();
            let (fa, fia) = (self.net.supernode.f[a as usize], self.finv[a as usize]);
            loops = [
                fresh(fa).then_some(fa),
                (fia != fa && fresh(fia)).then_some(fia),
            ];
        }
        nbrs.iter().copied().chain(loops.into_iter().flatten())
    }

    /// Hop distance from router `s` to router `t`, from factor state
    /// alone and without materializing a path: 1 iff product-adjacent,
    /// 2 iff a 2-hop template hits, else 3 — every PolarStar has
    /// diameter ≤ 3 (Theorems 4/5). Allocation-free and uncounted.
    pub fn distance(&self, s: u32, t: u32) -> u32 {
        if s == t {
            0
        } else if self.product_adjacent(s, t) {
            1
        } else if self.two_hop_middle(s, t).is_some() {
            2
        } else {
            3
        }
    }

    /// Destination-based incremental routing (§9.2): the next router on
    /// a minimal path from `current` toward `dst`, or `None` when
    /// already there — the first neighbor in ascending id order that the
    /// kernel puts one hop closer. This is the per-hop decision an
    /// actual PolarStar router makes from factor-graph state, so no path
    /// state travels with the packet.
    pub fn next_hop(&self, current: u32, dst: u32) -> Option<u32> {
        let d = self.distance(current, dst);
        match d {
            0 => None,
            1 => Some(dst),
            _ => self
                .net
                .graph()
                .neighbors(current)
                .iter()
                .copied()
                .find(|&nb| self.distance(nb, dst) < d),
        }
    }

    /// The lexicographically first minimal path from router `s` to
    /// router `t`: [`AnalyticRouter::next_hop`] followed to `t`, as the
    /// sequence of routers after `s` (empty when `s == t`). Length is at
    /// most 3 (Theorems 4/5).
    pub fn route(&self, s: u32, t: u32) -> Vec<u32> {
        if s == t {
            return Vec::new();
        }
        self.route_count.fetch_add(1, Ordering::Relaxed);
        std::iter::successors(self.next_hop(s, t), |&v| self.next_hop(v, t)).collect()
    }

    /// Product adjacency from factor state only.
    fn product_adjacent(&self, s: u32, t: u32) -> bool {
        let (x, xp) = (self.net.structure_of(s), self.net.local_of(s));
        let (y, yp) = (self.net.structure_of(t), self.net.local_of(t));
        if x == y {
            self.copy_adjacent(x, xp, yp)
        } else {
            self.net.er.graph.has_edge(x, y) && self.cross(x, y, xp) == yp
        }
    }

    /// Local coordinates reachable by one structure-level hop of the walk
    /// `from → to`: a crossing when the vertices differ, or a quadric
    /// self-loop hop (both f and f⁻¹ directions) when they coincide.
    fn hop_locals(&self, from: u32, to: u32, a: u32) -> impl Iterator<Item = u32> {
        let (first, second) = if from == to {
            let (fa, fia) = (self.net.supernode.f[a as usize], self.finv[a as usize]);
            (fa, (fia != fa).then_some(fia))
        } else {
            (self.cross(from, to, a), None)
        };
        std::iter::once(first).chain(second)
    }

    /// The middle router of the first 2-hop template path `s → m → t`,
    /// if any: the distance kernel's one template enumeration. Covers
    /// every 2-walk of the star product.
    fn two_hop_middle(&self, s: u32, t: u32) -> Option<u32> {
        let net = &self.net;
        let (x, xp) = (net.structure_of(s), net.local_of(s));
        let (y, yp) = (net.structure_of(t), net.local_of(t));
        if x == y {
            // Intra-supernode 2-path through a copy-internal middle.
            return self
                .copy_neighbors(x, xp)
                .find(|&m| self.copy_adjacent(x, m, yp))
                .map(|m| net.router_id(x, m));
        }
        if net.er.graph.has_edge(x, y) {
            // §9.2 case (c): intra hop at x, then cross.
            if let Some(m) = self
                .copy_neighbors(x, xp)
                .find(|&m| self.cross(x, y, m) == yp)
            {
                return Some(net.router_id(x, m));
            }
            // §9.2 case (d): cross, then intra hop at y.
            let mid = self.cross(x, y, xp);
            if self.copy_adjacent(y, mid, yp) {
                return Some(net.router_id(y, mid));
            }
        }
        // Alternating path through a middle supernode (case (a); also the
        // only way two non-adjacent supernodes can be 2 apart).
        for &w in self.middles(x, y) {
            for h1 in self.hop_locals(x, w, xp) {
                if self.hop_locals(w, y, h1).any(|h2| h2 == yp) {
                    // For a self-loop middle (w == x or w == y) the
                    // intermediate router sits in the looping copy.
                    let mid = net.router_id(w, h1);
                    if mid != s && mid != t {
                        return Some(mid);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{best_config, best_config_with, PolarStarConfig, SupernodeKind};
    use crate::network::PolarStarNetwork;
    use polarstar_graph::traversal;

    fn validate_path(net: &PolarStarNetwork, s: u32, path: &[u32]) {
        let mut cur = s;
        for &next in path {
            assert!(
                net.graph().has_edge(cur, next),
                "{}: hop {cur}→{next} is not an edge",
                net.config.label()
            );
            cur = next;
        }
    }

    /// Check, on every `s_step`-th source × `t_step`-th destination,
    /// that the distance kernel equals the BFS distance and that the
    /// walked route is a valid path of exactly that length. Returns the
    /// number of pairs at BFS distance 2.
    fn check_pairs_minimal(net: &PolarStarNetwork, s_step: usize, t_step: usize) -> u64 {
        let router = AnalyticRouter::new(net.clone());
        let n = net.spec.routers() as u32;
        let label = net.config.label();
        let mut at_two = 0;
        for s in (0..n).step_by(s_step) {
            let dist = traversal::bfs_distances(net.graph(), s);
            for t in (0..n).step_by(t_step) {
                let want = dist[t as usize];
                at_two += u64::from(want == 2);
                assert_eq!(router.distance(s, t), want, "{label}: kernel {s}→{t}");
                let path = router.route(s, t);
                validate_path(net, s, &path);
                assert_eq!(path.last().copied().unwrap_or(s), t);
                assert_eq!(path.len() as u32, want, "{label}: route {s}→{t}");
            }
        }
        at_two
    }

    #[test]
    fn iq_routing_matches_bfs_everywhere() {
        for cfg in [
            PolarStarConfig {
                q: 2,
                supernode: SupernodeKind::InductiveQuad { degree: 3 },
            },
            PolarStarConfig {
                q: 3,
                supernode: SupernodeKind::InductiveQuad { degree: 3 },
            },
            PolarStarConfig {
                q: 4,
                supernode: SupernodeKind::InductiveQuad { degree: 4 },
            },
            PolarStarConfig {
                q: 5,
                supernode: SupernodeKind::InductiveQuad { degree: 3 },
            },
        ] {
            let net = PolarStarNetwork::build(cfg, 1).unwrap();
            let at_two = check_pairs_minimal(&net, 1, 1);
            assert!(at_two > 0, "{}: no distance-2 pair checked", cfg.label());
        }
    }

    #[test]
    fn paley_routing_matches_bfs_everywhere() {
        for cfg in [
            PolarStarConfig {
                q: 3,
                supernode: SupernodeKind::Paley { degree: 2 },
            },
            PolarStarConfig {
                q: 4,
                supernode: SupernodeKind::Paley { degree: 2 },
            },
            PolarStarConfig {
                q: 5,
                supernode: SupernodeKind::Paley { degree: 4 },
            },
        ] {
            let net = PolarStarNetwork::build(cfg, 1).unwrap();
            let at_two = check_pairs_minimal(&net, 1, 1);
            assert!(at_two > 0, "{}: no distance-2 pair checked", cfg.label());
        }
    }

    #[test]
    fn table3_scale_sampled_pairs() {
        // PS-IQ at Table 3 scale: sample sources, verify minimality.
        let net = PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap();
        assert!(check_pairs_minimal(&net, 97, 13) > 0);
    }

    #[test]
    fn radix32_scale_sampled_pairs() {
        // The 9 954-router PolarStar the flow benchmarks run on.
        let net = PolarStarNetwork::build(best_config(32).unwrap(), 1).unwrap();
        assert!(check_pairs_minimal(&net, 1999, 17) > 0);
    }

    #[test]
    fn paley_variant_at_scale() {
        let net = PolarStarNetwork::build(best_config_with(12, false).unwrap(), 1).unwrap();
        assert!(check_pairs_minimal(&net, 41, 7) > 0);
    }

    #[test]
    fn distance_probes_are_not_counted_as_routes() {
        let net = PolarStarNetwork::build(best_config(9).unwrap(), 1).unwrap();
        let router = AnalyticRouter::new(net.clone());
        let n = net.spec.routers() as u32;
        for t in 0..n {
            assert!(router.distance(0, t) <= 3);
        }
        assert_eq!(router.routes_computed(), 0);
        router.route(0, n - 1);
        assert_eq!(router.routes_computed(), 1);
    }

    #[test]
    fn flat_middles_keep_the_merge_order() {
        // Reference: the per-cell sorted merge the CSR replaced.
        for q in [2, 3, 4, 5, 7] {
            let er = ErGraph::new(q).unwrap();
            let (g, n) = (&er.graph, er.graph.n() as u32);
            let (off, mid) = flat_middles(&er);
            for x in 0..n {
                for y in 0..n {
                    let mut want: Vec<u32> = Vec::new();
                    if x != y {
                        want.extend(g.neighbors(x).iter().filter(|&&w| g.has_edge(w, y)));
                        if g.has_edge(x, y) {
                            want.extend([x, y].into_iter().filter(|&e| er.quadric[e as usize]));
                        }
                    }
                    let cell = (x * n + y) as usize;
                    let got = &mid[off[cell] as usize..off[cell + 1] as usize];
                    assert_eq!(got, want, "ER_{q} cell ({x}, {y})");
                }
            }
        }
    }

    #[test]
    fn incremental_next_hop_is_consistent() {
        // §9.2: "amenable to incremental routing and therefore, suitable
        // for destination-based routing" — following next_hop from every
        // source must reach the destination in exactly the BFS distance.
        let cfg = best_config(10).unwrap();
        let net = PolarStarNetwork::build(cfg, 1).unwrap();
        let router = AnalyticRouter::new(net.clone());
        let n = net.spec.routers() as u32;
        for s in (0..n).step_by(11) {
            let dist = traversal::bfs_distances(net.graph(), s);
            for t in (0..n).step_by(7) {
                let mut cur = s;
                let mut hops = 0;
                while let Some(next) = router.next_hop(cur, t) {
                    assert!(net.graph().has_edge(cur, next));
                    cur = next;
                    hops += 1;
                    assert!(hops <= 3, "{s}→{t} exceeded diameter");
                }
                assert_eq!(cur, t);
                assert_eq!(hops, dist[t as usize], "{s}→{t}");
            }
        }
    }

    #[test]
    fn route_storage_is_factor_sized() {
        // The paper's §9.3 point: analytic routing needs structure-graph
        // middles, not per-destination tables. Middle lists are O(n²) in
        // the *structure* order, far below router-count × degree.
        let cfg = best_config(15).unwrap();
        let net = PolarStarNetwork::build(cfg, 1).unwrap();
        let n_struct = net.config.structure_order();
        let table_entries = net.spec.routers() * net.spec.routers();
        assert!(n_struct * n_struct * 4 < table_entries / 10);
    }
}
