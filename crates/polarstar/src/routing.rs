//! Analytic minimal-path computation for PolarStar (§9.2).
//!
//! Routers store only factor-graph state — the structure graph's
//! adjacency and 𝔽_q tables for its 2-path middles, the supernode
//! adjacency, and the bijection f — instead of a per-destination routing
//! table. From that state this module computes one thing, **the
//! distance kernel** [`AnalyticRouter::distance`]: 1 iff the routers are
//! product-adjacent, 2 iff a 2-hop template hits, 3 otherwise (Theorems
//! 4/5 bound the diameter by 3). The 2-hop templates are one enumeration
//! (`two_hop_middle`) over every 2-walk of the star product
//! (intra–intra, intra–cross, cross–intra, cross–cross; §9.2 cases (a),
//! (c) and (d) among them). Its bounded form [`AnalyticRouter::within`]
//! — is the distance ≤ h? — asks only as much as `h` needs: adjacency at
//! 1, adjacency or a template hit at 2, nothing past 2. Neither builds
//! anything.
//!
//! `within` is the probe a walk puts to each neighbor: at a router `r`
//! hops out, a neighbor is one hop closer iff it is within `r − 1`. The
//! walk itself — §9.2 case (b) in general form, take one hop, then ride
//! a 2-hop template — is the serving oracle's (`polarstar_routed`'s
//! `AnalyticOracle`), whose `path` is the lexicographically first
//! minimal path. It is exactly as minimal as the kernel is exact: the
//! tests pin `distance` and `within` to BFS, exhaustively on small IQ
//! and Paley configs and sampled up to radix 32, and
//! `tests/kernel_exhaustive.rs` pins `within` on every router pair of
//! every config up to radix 28, so no backstop search exists.
//!
//! Storage: one adjacency bit row per factor vertex, ⌈|V|/64⌉ words
//! each, so every adjacency test is one word read — 133 × 3 + 8 × 1
//! words (3.3 KB) on PS-IQ, 40 KB at radix 32, 454 KB at radix 64 and
//! 6.1 MB at radix 128 — plus O(|V(G')|) for f⁻¹ and the 4 · (2q² + q)
//! bytes of field tables behind [`ErGraph::middle`]. No middle is
//! stored: ER_q is the polarity graph of PG(2, q), so distinct structure
//! vertices x, y have exactly one 2-walk middle, the point x × y
//! (Property R). PS-IQ's whole state is 4.4 KB, versus ~1 M entries for
//! a full per-destination next-hop table (§9.3's comparison with SF/BF).
//!
//! [`ErGraph::middle`]: polarstar_topo::er::ErGraph::middle

use crate::network::PolarStarNetwork;
use polarstar_graph::Graph;
use std::sync::Arc;

/// Analytic router over a PolarStar network.
///
/// Owns its network behind an [`Arc`], so it can be embedded in
/// long-lived serving structures (oracles, epoch swappers) without
/// self-referential lifetimes; cloning the `Arc` before construction is
/// cheap relative to the bit-row precompute.
///
/// ```
/// use polarstar::{design::best_config, network::PolarStarNetwork};
/// use polarstar::routing::AnalyticRouter;
/// let net = PolarStarNetwork::build(best_config(9).unwrap(), 1).unwrap();
/// let router = AnalyticRouter::new(net.clone());
/// let d = router.distance(0, 100);
/// assert!(d <= 3);                          // diameter-3 guarantee
/// assert!(router.within(0, 100, d) && !router.within(0, 100, d - 1));
/// ```
pub struct AnalyticRouter {
    net: Arc<PolarStarNetwork>,
    /// Inverse of the supernode bijection.
    finv: Vec<u32>,
    /// Adjacency bit rows of the structure graph and of the supernode.
    structure_adj: AdjRows,
    supernode_adj: AdjRows,
}

/// A router's `(structure, local)` coordinates.
type Coord = (u32, u32);

/// A factor graph's adjacency as one bit row per vertex: bit `v` of
/// row `u` is set iff `u ~ v`. One word read answers an edge test.
struct AdjRows {
    /// Vertices, one row each.
    n: usize,
    /// Words per row, `⌈n/64⌉`.
    words: usize,
    bits: Vec<u64>,
}

impl AdjRows {
    fn new(g: &Graph) -> Self {
        let words = g.n().div_ceil(64);
        let mut bits = vec![0u64; g.n() * words];
        for u in 0..g.n() {
            for &v in g.neighbors(u as u32) {
                bits[u * words + (v >> 6) as usize] |= 1 << (v & 63);
            }
        }
        AdjRows {
            n: g.n(),
            words,
            bits,
        }
    }

    /// Whether `u ~ v`; both must be vertices.
    #[inline]
    fn has(&self, u: u32, v: u32) -> bool {
        self.bits[u as usize * self.words + (v >> 6) as usize] >> (v & 63) & 1 != 0
    }

    /// Whether `u ~ v`, false for an id past the graph.
    fn has_checked(&self, u: u32, v: u32) -> bool {
        (u as usize) < self.n && (v as usize) < self.n && self.has(u, v)
    }
}

/// The kernel's refusal of an id ≥ n, kept out of line so the probe's
/// check is one compare and a branch.
#[cold]
#[inline(never)]
fn out_of_range(s: u32, t: u32, n: usize) -> ! {
    panic!("AnalyticRouter: router id out of range ({s}, {t}) for {n} routers")
}

impl AnalyticRouter {
    /// Precompute f⁻¹ and the factors' adjacency bit rows.
    pub fn new(net: impl Into<Arc<PolarStarNetwork>>) -> Self {
        let net = net.into();
        let f = &net.supernode.f;
        let mut finv = vec![0u32; f.len()];
        for (a, &b) in f.iter().enumerate() {
            finv[b as usize] = a as u32;
        }
        AnalyticRouter {
            structure_adj: AdjRows::new(&net.er.graph),
            supernode_adj: AdjRows::new(&net.supernode.graph),
            net,
            finv,
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

    /// Whole routes this router materialized: always 0. It builds none —
    /// paths are the serving oracle's walk over [`AnalyticRouter::within`]
    /// — and the method stays, like [`AnalyticRouter::fallbacks`],
    /// because the `benchmark/` ledger reads it
    /// (`analytic.routes_computed`).
    pub fn routes_computed(&self) -> u64 {
        0
    }

    /// Resident bytes of the factor-graph routing state (f⁻¹, the two
    /// factors' adjacency bit rows, the structure graph's field tables
    /// behind [`ErGraph::middle`]) — the whole per-router storage cost of
    /// analytic routing, compared against `RouteTable::memory_bytes` in
    /// the scale benches.
    ///
    /// [`ErGraph::middle`]: polarstar_topo::er::ErGraph::middle
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.finv.capacity() * std::mem::size_of::<u32>()
            + (self.structure_adj.bits.capacity() + self.supernode_adj.bits.capacity())
                * std::mem::size_of::<u64>()
            + self.net.er.table_bytes()
    }

    /// Whether structure vertices `x` and `y` are adjacent, as the
    /// kernel reads it off its bit rows (false for an id past the
    /// structure graph).
    pub fn structure_adjacent(&self, x: u32, y: u32) -> bool {
        self.structure_adj.has_checked(x, y)
    }

    /// Whether supernode coordinates `a` and `b` are adjacent in the
    /// supernode graph, as the kernel reads it off its bit rows (false
    /// for an id past the supernode).
    pub fn supernode_adjacent(&self, a: u32, b: u32) -> bool {
        self.supernode_adj.has_checked(a, b)
    }

    /// The `(structure, local)` coordinates of routers `s` and `t`,
    /// refusing an id outside the network: the kernel's arithmetic would
    /// otherwise read another router's factor state. The check is one
    /// compare on the structure coordinates the kernel needs anyway.
    #[inline]
    fn locate(&self, s: u32, t: u32) -> (Coord, Coord) {
        let net = &self.net;
        let (x, y) = (net.structure_of(s), net.structure_of(t));
        if x.max(y) as usize >= self.structure_adj.n {
            out_of_range(s, t, self.structure_adj.n * self.supernode_adj.n);
        }
        ((x, net.local_of(s)), (y, net.local_of(t)))
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
        self.supernode_adj.has(a, b)
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
            let fresh = |c: u32| c != a && !self.supernode_adj.has(a, c);
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
    /// diameter ≤ 3 (Theorems 4/5). Allocation-free.
    ///
    /// # Panics
    /// If `s` or `t` is not a router of the network (an id ≥ `n`).
    pub fn distance(&self, s: u32, t: u32) -> u32 {
        let (a, b) = self.locate(s, t);
        if s == t {
            0
        } else if self.product_adjacent(a, b) {
            1
        } else if self.two_hop_middle(a, b).is_some() {
            2
        } else {
            3
        }
    }

    /// Whether `distance(s, t) ≤ h`, asking the kernel only as much as
    /// `h` needs: `s == t` at 0, product adjacency at 1, adjacency or a
    /// 2-hop template hit at 2, and nothing beyond 2 (Theorems 4/5).
    /// This is the probe a walk puts to each neighbor: at a router `r`
    /// hops out, a neighbor is one hop closer iff it is within `r − 1`.
    /// Allocation-free.
    ///
    /// # Panics
    /// If `s` or `t` is not a router of the network (an id ≥ `n`).
    #[inline]
    pub fn within(&self, s: u32, t: u32, h: u32) -> bool {
        let (a, b) = self.locate(s, t);
        s == t
            || match h {
                0 => false,
                1 => self.product_adjacent(a, b),
                2 => self.product_adjacent(a, b) || self.two_hop_middle(a, b).is_some(),
                _ => true,
            }
    }

    /// Product adjacency of the routers at coordinates `(x, xp)` and
    /// `(y, yp)`, from factor state only.
    #[inline]
    fn product_adjacent(&self, (x, xp): Coord, (y, yp): Coord) -> bool {
        if x == y {
            self.copy_adjacent(x, xp, yp)
        } else {
            self.structure_adj.has(x, y) && self.cross(x, y, xp) == yp
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

    /// The middle router of the first 2-hop template path `s → m → t`
    /// between the routers at `(x, xp)` and `(y, yp)`, if any: the
    /// distance kernel's one template enumeration. Covers every 2-walk
    /// of the star product.
    fn two_hop_middle(&self, (x, xp): Coord, (y, yp): Coord) -> Option<u32> {
        let net = &self.net;
        if x == y {
            // Intra-supernode 2-path through a copy-internal middle.
            return self
                .copy_neighbors(x, xp)
                .find(|&m| self.copy_adjacent(x, m, yp))
                .map(|m| net.router_id(x, m));
        }
        if self.structure_adj.has(x, y) {
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
        // Alternating path through the one middle supernode w = x × y
        // (case (a); also the only way two non-adjacent supernodes can be
        // 2 apart). w == x or w == y is a self-loop hop at that quadric
        // vertex, and the intermediate router sits in the looping copy.
        let w = net.er.middle(x, y);
        self.hop_locals(x, w, xp)
            .find(|&h1| {
                self.hop_locals(w, y, h1).any(|h2| h2 == yp)
                    && (w, h1) != (x, xp)
                    && (w, h1) != (y, yp)
            })
            .map(|h1| net.router_id(w, h1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{best_config, best_config_with, PolarStarConfig, SupernodeKind};
    use crate::network::PolarStarNetwork;
    use polarstar_graph::traversal;

    /// Check, on every `s_step`-th source × `t_step`-th destination,
    /// that the distance kernel equals the BFS distance and that the
    /// bounded probe `within(s, t, h)` answers `distance ≤ h` for every
    /// h ≤ 3. Returns the number of pairs at BFS distance 2.
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
                for h in 0..=3 {
                    assert_eq!(router.within(s, t, h), want <= h, "{label}: {s}→{t} ≤ {h}");
                }
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
    fn out_of_range_ids_are_refused() {
        // PS-IQ, n = 1 064. Unchecked, the kernel answered
        // distance(0, 1064) = 2 and distance(5, 1067) = 3, and panicked
        // on a bare bounds check for distance(1064, 0).
        let net = PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap();
        let router = AnalyticRouter::new(net);
        let n = 1064;
        fn refused<T>(router: &AnalyticRouter, probe: impl FnOnce(&AnalyticRouter) -> T) {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe(router)))
                .err()
                .expect("an id ≥ n must be refused");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("router id out of range"), "{msg}");
        }
        refused(&router, |r| r.distance(0, n));
        refused(&router, |r| r.distance(5, n + 3));
        refused(&router, |r| r.distance(n, 0));
        refused(&router, |r| r.within(0, n, 2));
        refused(&router, |r| r.within(n, n, 0));
        assert_eq!(router.distance(n - 1, n - 1), 0);
        assert!(router.within(0, n - 1, 3));
        assert!(!router.structure_adjacent(0, 133) && !router.supernode_adjacent(8, 0));
    }

    #[test]
    fn incremental_next_hops_match_bfs() {
        // §9.2: "amenable to incremental routing and therefore, suitable
        // for destination-based routing" — at a router d hops out, the
        // neighbors the kernel puts within d − 1 are exactly the BFS
        // minimal next hops, and there is at least one.
        let cfg = best_config(10).unwrap();
        let net = PolarStarNetwork::build(cfg, 1).unwrap();
        let router = AnalyticRouter::new(net.clone());
        let n = net.spec.routers() as u32;
        for t in (0..n).step_by(7) {
            let dist = traversal::bfs_distances(net.graph(), t);
            for s in (0..n).step_by(11).filter(|&s| s != t) {
                let d = dist[s as usize];
                let mut hops = 0;
                for &nb in net.graph().neighbors(s) {
                    let closer = router.within(nb, t, d - 1);
                    assert_eq!(closer, dist[nb as usize] == d - 1, "{s}→{t} via {nb}");
                    hops += u32::from(closer);
                }
                assert!(hops > 0, "{s}→{t}: no minimal next hop");
            }
        }
    }

    #[test]
    fn route_storage_is_factor_sized() {
        // The paper's §9.3 point: analytic routing needs factor-graph
        // state, not per-destination tables. The whole state is the two
        // factors' bit rows, f⁻¹ and ER_q's field tables; no structure
        // pair stores a middle.
        for (d, want) in [(15, 4_412), (32, 44_468)] {
            let net = PolarStarNetwork::build(best_config(d).unwrap(), 1).unwrap();
            let router = AnalyticRouter::new(net.clone());
            let (n_s, n_l) = (net.er.order(), net.supernode.order());
            let q = net.er.q as usize;
            let rows = n_s * n_s.div_ceil(64) + n_l * n_l.div_ceil(64);
            let bytes =
                std::mem::size_of::<AnalyticRouter>() + 8 * rows + 4 * n_l + 4 * (2 * q * q + q);
            assert_eq!(router.memory_bytes(), bytes, "radix {d}");
            assert_eq!(router.memory_bytes(), want, "radix {d}");
        }
    }
}
