//! Analytic minimal-path computation for PolarStar (§9.2).
//!
//! Routers store only factor-graph state — the structure graph's
//! adjacency and 2-path middles, the supernode adjacency, and the
//! bijection f — instead of a per-destination routing table. Two things
//! are computed from that state:
//!
//! * **the distance kernel**, [`AnalyticRouter::distance`]: 1 iff the
//!   routers are product-adjacent, 2 iff a 2-hop template hits, 3
//!   otherwise (Theorems 4/5 bound the diameter by 3). It walks the
//!   templates without building anything — no `Vec`, no counter — and
//!   is what a serving oracle probes per neighbor, per query;
//! * **the path builder**, [`AnalyticRouter::route`]: the Property-R /
//!   R* case analysis of Theorem 4, enumerated in increasing length so
//!   the returned path is minimal:
//!   - same supernode: a supernode-internal path (possibly via the
//!     quadric self-loop edges);
//!   - adjacent supernodes: one of the four cases (a)–(d) of §9.2;
//!   - distance-2 supernodes: hop onto an alternating path through a
//!     Property-R middle supernode, then an adjacent-supernode tail.
//!
//! Both read the 2-hop templates through one enumeration
//! (`two_hop_middle`), which covers every 2-walk of the star product
//! (intra–intra, intra–cross, cross–intra, cross–cross), so kernel and
//! builder cannot drift; debug builds check each built path against the
//! kernel, and the test suite checks both against BFS. A bounded
//! depth-3 local search backstops the rare Paley (non-involution)
//! 3-hop corner cases of the path builder.
//!
//! [`AnalyticRouter::routes_computed`] and [`AnalyticRouter::fallbacks`]
//! count *materialized* routes only (`route` / `next_hop` calls);
//! distance probes are not counted, so a serving workload that never
//! asks for a template path reads 0 on both.
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
    /// Number of routes that needed the bounded local-search backstop.
    fallback_count: AtomicU64,
    /// Total [`AnalyticRouter::route`] calls, the denominator of
    /// [`AnalyticRouter::fallback_rate`].
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
            fallback_count: AtomicU64::new(0),
            route_count: AtomicU64::new(0),
        }
    }

    /// The network this router answers for.
    pub fn network(&self) -> &Arc<PolarStarNetwork> {
        &self.net
    }

    /// How many materialized routes used the local-search backstop
    /// instead of a §9.2 template.
    pub fn fallbacks(&self) -> u64 {
        self.fallback_count.load(Ordering::Relaxed)
    }

    /// Total routes materialized by [`AnalyticRouter::route`] so far
    /// ([`AnalyticRouter::distance`] probes are not counted).
    pub fn routes_computed(&self) -> u64 {
        self.route_count.load(Ordering::Relaxed)
    }

    /// Fraction of routes that needed the backstop (0.0 when no routes
    /// have been computed). The figure benchmarks surface through their
    /// run manifests; 0 on every inductive-quad config.
    pub fn fallback_rate(&self) -> f64 {
        let routes = self.routes_computed();
        if routes == 0 {
            0.0
        } else {
            self.fallbacks() as f64 / routes as f64
        }
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

    /// Destination-based incremental routing (§9.2): the next router on
    /// a minimal path from `current` toward `dst`, or `None` when
    /// already there. This is the per-hop decision an actual PolarStar
    /// router makes — it recomputes the remaining minimal path from
    /// factor-graph state at every hop, so no path state travels with
    /// the packet.
    pub fn next_hop(&self, current: u32, dst: u32) -> Option<u32> {
        if current == dst {
            return None;
        }
        self.route(current, dst).first().copied()
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

    /// Compute a minimal path from router `s` to router `t`, returned as
    /// the sequence of routers after `s` (empty when `s == t`). Length is
    /// at most 3 (Theorems 4/5).
    pub fn route(&self, s: u32, t: u32) -> Vec<u32> {
        if s == t {
            return Vec::new();
        }
        self.route_count.fetch_add(1, Ordering::Relaxed);
        let path = if self.product_adjacent(s, t) {
            vec![t]
        } else if let Some(mid) = self.two_hop_middle(s, t) {
            vec![mid, t]
        } else if let Some(p) = self.try_three_hops(s, t) {
            p
        } else {
            self.fallback_count.fetch_add(1, Ordering::Relaxed);
            // Theorem 4's case analysis covers every pair whose
            // supernodes coincide or are adjacent in the structure
            // graph; only the distance-2 alternating-path cases have
            // known Paley corner holes. A backstop on an
            // adjacent-supernode pair would mean the (a)–(d) templates
            // themselves are broken.
            debug_assert!(
                {
                    let (x, y) = (self.net.structure_of(s), self.net.structure_of(t));
                    x != y && !self.net.er.graph.has_edge(x, y)
                },
                "pristine template miss on an adjacent-supernode pair {s}→{t}"
            );
            self.bounded_search(s, t)
                .unwrap_or_else(|| panic!("no path of length ≤ 4 from {s} to {t}"))
        };
        debug_assert_eq!(
            path.len() as u32,
            self.distance(s, t),
            "distance kernel disagrees with the built path {s}→{t}"
        );
        path
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
    /// if any: the one enumeration behind both the distance kernel and
    /// the path builder. Covers every 2-walk of the star product.
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

    fn try_three_hops(&self, s: u32, t: u32) -> Option<Vec<u32>> {
        let net = &self.net;
        let er = &net.er.graph;
        let (x, xp) = (net.structure_of(s), net.local_of(s));
        let (y, yp) = (net.structure_of(t), net.local_of(t));

        if x != y {
            for &w in self.middles(x, y) {
                // Intra hop at the source copy, then the 2-walk.
                for m in self.copy_neighbors(x, xp) {
                    for h1 in self.hop_locals(x, w, m) {
                        if self.hop_locals(w, y, h1).any(|h2| h2 == yp) {
                            return Some(vec![net.router_id(x, m), net.router_id(w, h1), t]);
                        }
                    }
                }
                for h1 in self.hop_locals(x, w, xp) {
                    // Intra hop at the middle copy.
                    for m in self.copy_neighbors(w, h1) {
                        if self.hop_locals(w, y, m).any(|h2| h2 == yp) {
                            return Some(vec![net.router_id(w, h1), net.router_id(w, m), t]);
                        }
                    }
                    // Intra hop at the destination copy.
                    for h2 in self.hop_locals(w, y, h1) {
                        if self.copy_adjacent(y, h2, yp) {
                            return Some(vec![net.router_id(w, h1), net.router_id(y, h2), t]);
                        }
                    }
                }
            }
            // Adjacent supernodes may also need intra-cross-intra.
            if er.has_edge(x, y) {
                for m in self.copy_neighbors(x, xp) {
                    let mid = self.cross(x, y, m);
                    if self.copy_adjacent(y, mid, yp) {
                        return Some(vec![net.router_id(x, m), net.router_id(y, mid), t]);
                    }
                }
            }
        } else {
            // Same supernode at distance 3: intra-intra-intra.
            for m1 in self.copy_neighbors(x, xp) {
                for m2 in self.copy_neighbors(x, m1) {
                    if self.copy_adjacent(x, m2, yp) {
                        return Some(vec![net.router_id(x, m1), net.router_id(x, m2), t]);
                    }
                }
            }
        }

        // Pure-crossing 3-walks x → a → w → y (§9.2 case (b): hop to a
        // neighbor, then ride a 2-hop alternating path; also covers the
        // same-supernode triangle excursion when y == x). The first hop
        // may be a quadric self-loop.
        let crossings = er.neighbors(x).iter().map(|&a| (a, self.cross(x, a, xp)));
        let self_loops = net.er.quadric[x as usize]
            .then(|| self.hop_locals(x, x, xp).map(move |h| (x, h)))
            .into_iter()
            .flatten();
        for (a, h) in crossings.chain(self_loops) {
            if a == y {
                continue; // would be an at-most-2-hop case, already tried
            }
            for &w in self.middles(a, y) {
                for h1 in self.hop_locals(a, w, h) {
                    if self.hop_locals(w, y, h1).any(|h2| h2 == yp) {
                        let m1 = net.router_id(a, h);
                        let m2 = net.router_id(w, h1);
                        if m1 != s && m1 != t && m2 != s && m2 != t && m1 != m2 {
                            return Some(vec![m1, m2, t]);
                        }
                    }
                }
            }
        }
        None
    }

    /// Depth-bounded breadth-first search using on-the-fly factor
    /// adjacency (no global tables). Backstop only.
    fn bounded_search(&self, s: u32, t: u32) -> Option<Vec<u32>> {
        use std::collections::{HashMap, VecDeque};
        let mut parent: HashMap<u32, u32> = HashMap::new();
        let mut depth: HashMap<u32, u32> = HashMap::new();
        let mut queue = VecDeque::new();
        depth.insert(s, 0);
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            let dv = depth[&v];
            if dv >= 4 {
                break;
            }
            for w in self.local_neighbors(v) {
                if let std::collections::hash_map::Entry::Vacant(e) = depth.entry(w) {
                    e.insert(dv + 1);
                    parent.insert(w, v);
                    if w == t {
                        let mut path = vec![t];
                        let mut cur = t;
                        while let Some(&p) = parent.get(&cur) {
                            if p == s {
                                break;
                            }
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(w);
                }
            }
        }
        None
    }

    /// All product neighbors of a router, computed from factor state.
    pub fn local_neighbors(&self, v: u32) -> Vec<u32> {
        let net = &self.net;
        let (x, xp) = (net.structure_of(v), net.local_of(v));
        let mut out: Vec<u32> = self
            .copy_neighbors(x, xp)
            .map(|m| net.router_id(x, m))
            .collect();
        for &y in net.er.graph.neighbors(x) {
            out.push(net.router_id(y, self.cross(x, y, xp)));
        }
        out
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
    /// built route is a valid path of exactly that length. Returns
    /// (pairs at BFS distance 2, backstopped routes).
    fn check_pairs_minimal(net: &PolarStarNetwork, s_step: usize, t_step: usize) -> (u64, u64) {
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
                let fallbacks = router.fallbacks();
                let path = router.route(s, t);
                validate_path(net, s, &path);
                assert_eq!(path.last().copied().unwrap_or(s), t);
                assert_eq!(path.len() as u32, want, "{label}: route {s}→{t}");
                // The 2-hop template is complete: a distance-2 pair never
                // needs the backstop search.
                assert!(
                    want != 2 || router.fallbacks() == fallbacks,
                    "{label}: {s}→{t} at distance 2 left the templates"
                );
            }
        }
        (at_two, router.fallbacks())
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
            let (at_two, fallbacks) = check_pairs_minimal(&net, 1, 1);
            assert!(at_two > 0, "{}: no distance-2 pair checked", cfg.label());
            assert_eq!(
                fallbacks,
                0,
                "{}: templates must cover all pairs",
                cfg.label()
            );
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
            // Backstopped 3-hop routes are allowed here; the kernel must
            // still equal BFS on them (checked pair by pair).
            let (at_two, _fallbacks) = check_pairs_minimal(&net, 1, 1);
            assert!(at_two > 0, "{}: no distance-2 pair checked", cfg.label());
        }
    }

    #[test]
    fn table3_scale_sampled_pairs() {
        // PS-IQ at Table 3 scale: sample sources, verify minimality.
        let net = PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap();
        let (at_two, fallbacks) = check_pairs_minimal(&net, 97, 13);
        assert!(at_two > 0);
        assert_eq!(fallbacks, 0);
    }

    #[test]
    fn radix32_scale_sampled_pairs() {
        // The 9 954-router PolarStar the flow benchmarks run on.
        let net = PolarStarNetwork::build(best_config(32).unwrap(), 1).unwrap();
        let (at_two, fallbacks) = check_pairs_minimal(&net, 1999, 17);
        assert!(at_two > 0);
        assert_eq!(fallbacks, 0);
    }

    #[test]
    fn paley_variant_at_scale() {
        let net = PolarStarNetwork::build(best_config_with(12, false).unwrap(), 1).unwrap();
        let (at_two, _fallbacks) = check_pairs_minimal(&net, 41, 7);
        assert!(at_two > 0);
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
    fn local_neighbors_match_graph() {
        let cfg = best_config(9).unwrap();
        let net = PolarStarNetwork::build(cfg, 1).unwrap();
        let router = AnalyticRouter::new(net.clone());
        for v in 0..net.spec.routers() as u32 {
            let mut computed = router.local_neighbors(v);
            computed.sort_unstable();
            computed.dedup();
            assert_eq!(computed, net.graph().neighbors(v).to_vec(), "router {v}");
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
