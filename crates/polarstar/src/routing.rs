//! Analytic minimal-path computation for PolarStar (§9.2).
//!
//! Routers store only factor-graph state instead of a per-destination
//! routing table. The kernel that reads it,
//! [`polarstar_topo::star::DistanceKernel`], lives beside the
//! [`StarProduct`] view whose rule it follows and serves every
//! diameter-3 star product this repository builds; [`AnalyticRouter`]
//! pairs it with a shared [`PolarStarNetwork`], so the serving oracle
//! (`polarstar_routed`'s `AnalyticOracle`) holds one `Arc`.
//!
//! [`AnalyticRouter::within`] — is the distance ≤ h? — is the probe a
//! walk puts to each neighbor: at a router `r` hops out, a neighbor is
//! one hop closer iff it is within `r − 1`. The walk itself — §9.2 case
//! (b) in general form — is the serving oracle's. It is exactly as
//! minimal as the kernel is exact: the tests pin `distance` and `within`
//! to BFS, exhaustively on small IQ and Paley configs and sampled up to
//! radix 32, and `tests/kernel_exhaustive.rs` on every router pair of
//! every PolarStar (PolarFly included) and Bundlefly up to radix 28, so
//! no backstop search exists.
//!
//! Storage: one adjacency bit row per factor vertex, ⌈|V|/64⌉ words
//! each — 133 × 3 + 8 × 1 words (3.3 KB) on PS-IQ, 40 KB at radix 32,
//! 454 KB at radix 64 and 6.1 MB at radix 128 — plus f⁻¹ (held by the
//! [`Supernode`]). No middle is stored: the AND of two structure rows
//! lists a pair's 2-walk middles. PS-IQ's whole state is 3.4 KB, versus
//! ~1 M entries for a per-destination next-hop table (§9.3).
//!
//! [`StarProduct`]: polarstar_topo::star::StarProduct
//! [`Supernode`]: polarstar_topo::supernode::Supernode

use crate::network::PolarStarNetwork;
use polarstar_topo::star::DistanceKernel;
use std::sync::Arc;

/// Analytic router over a PolarStar network: the network and its
/// [`DistanceKernel`].
///
/// Owns its network behind an [`Arc`], so it can be embedded in
/// long-lived serving structures (oracles, epoch swappers) without
/// self-referential lifetimes.
pub struct AnalyticRouter {
    net: Arc<PolarStarNetwork>,
    kernel: DistanceKernel,
}

impl AnalyticRouter {
    /// Precompute the factors' adjacency bit rows.
    pub fn new(net: impl Into<Arc<PolarStarNetwork>>) -> Self {
        let net = net.into();
        AnalyticRouter {
            kernel: DistanceKernel::new(&net.view()),
            net,
        }
    }

    /// The network this router answers for.
    pub fn network(&self) -> &Arc<PolarStarNetwork> {
        &self.net
    }

    /// Routes that fell back to a backstop search: always 0, as routes
    /// walk the exact kernel. `benchmark/` reads it (`analytic.fallbacks`).
    pub fn fallbacks(&self) -> u64 {
        0
    }

    /// Whole routes this router materialized: always 0, as paths are the
    /// serving oracle's walk over [`AnalyticRouter::within`]. `benchmark/`
    /// reads it (`analytic.routes_computed`).
    pub fn routes_computed(&self) -> u64 {
        0
    }

    /// Resident bytes of the factor-graph routing state (f⁻¹ and the two
    /// factors' adjacency bit rows) — the whole per-router storage cost
    /// of analytic routing, compared against `RouteTable::memory_bytes`
    /// in the scale benches.
    pub fn memory_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + std::mem::size_of_val(self.net.supernode.finv())
            + self.kernel.row_bytes()
    }

    /// [`DistanceKernel::distance`] on this network; panics on an id ≥ n.
    pub fn distance(&self, s: u32, t: u32) -> u32 {
        self.kernel.distance(&self.net.view(), s, t)
    }

    /// [`DistanceKernel::within`] on this network; panics on an id ≥ n.
    #[inline]
    pub fn within(&self, s: u32, t: u32, h: u32) -> bool {
        self.kernel.within(&self.net.view(), s, t, h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{best_config, best_config_with, PolarStarConfig, SupernodeKind};
    use crate::network::PolarStarNetwork;
    use polarstar_graph::traversal;

    /// The kernel's checked adjacency reads, as the tests below ask them.
    impl AnalyticRouter {
        fn structure_adjacent(&self, x: u32, y: u32) -> bool {
            self.kernel.structure_adjacent(x, y)
        }

        fn supernode_adjacent(&self, a: u32, b: u32) -> bool {
            self.kernel.supernode_adjacent(a, b)
        }
    }

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
        // factors' bit rows and f⁻¹; no structure pair stores a middle.
        for (d, want) in [(15, 3_376), (32, 40_120)] {
            let net = PolarStarNetwork::build(best_config(d).unwrap(), 1).unwrap();
            let router = AnalyticRouter::new(net.clone());
            let (n_s, n_l) = (net.er.order(), net.supernode.order());
            let rows = n_s * n_s.div_ceil(64) + n_l * n_l.div_ceil(64);
            let bytes = std::mem::size_of::<AnalyticRouter>() + 8 * rows + 4 * n_l;
            assert_eq!(router.memory_bytes(), bytes, "radix {d}");
            assert_eq!(router.memory_bytes(), want, "radix {d}");
        }
    }
}
