//! Exactness pins for the faulted distance columns of the table-free
//! backend, visible in release builds (where the debug cross-check
//! inside the oracle is compiled out).
//!
//! [`AnalyticOracle::distance_column`] under a fault mask labels the
//! pristine diameter-3 envelope and repairs only the routers the mask
//! pushed out of it. Every such column must equal a fresh BFS over
//! [`FaultSet::degraded_graph`] — on an Inductive-Quad and a Paley
//! PolarStar, for cut cables from 0.1 % to 50 % of the links, one-way
//! link faults, failed routers, a failed destination, and fault entries
//! that name no edge (or no router) of the graph, alone and mixed. An
//! escalated query whose degraded distance is `d + 2` or more (`d` the
//! pristine one) reads its answer off the same repaired column; one at
//! `d + 1` is answered by the walk with one hop of slack and never
//! builds it. Either way its distance, ports and `k_paths` are pinned
//! against a re-masked `RouteTable`. CI runs this file at
//! `RAYON_NUM_THREADS=1` and `=4`.

use polarstar::design::{best_config, PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_graph::traversal::bfs_distances;
use polarstar_routed::{AnalyticOracle, Oracle, Regime};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::PathOracle;
use proptest::prelude::*;
use std::sync::Arc;

/// Table 3 PS-IQ: 1 064 routers, 7 980 links — 0.1 % is 8 cables.
fn iq_net() -> PolarStarNetwork {
    PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap()
}

/// q=7 Paley PolarStar (f is not an involution): 741 routers.
fn paley_net() -> PolarStarNetwork {
    let cfg = PolarStarConfig {
        q: 7,
        supernode: SupernodeKind::Paley { degree: 6 },
    };
    PolarStarNetwork::build(cfg, 1).unwrap()
}

/// One direction of each cable `cables` cut, chosen by `seed`.
fn one_way(cables: &FaultSet, seed: u64) -> FaultSet {
    let links = cables.failed_links().iter().copied();
    FaultSet::from_directed_links(
        links.filter(|&(u, v)| (u < v) == ((u ^ v ^ seed as u32) & 1 == 0)),
    )
}

/// Assert the oracle's column of every `stride`-th destination (and of
/// each destination in `also`) equals the BFS over the degraded graph.
fn check_columns(oracle: &AnalyticOracle, stride: usize, also: &[u32], case: &str) {
    let truth = oracle.faults().degraded_graph(oracle.network().graph());
    let n = oracle.num_routers() as u32;
    let mut col = Vec::new();
    let sampled = (0..n).step_by(stride);
    for dst in sampled.chain(also.iter().copied()) {
        assert!(oracle.distance_column(dst, &mut col).is_some());
        assert_eq!(col, bfs_distances(&truth, dst), "{case}: column {dst}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn repaired_columns_equal_degraded_bfs(seed in 0u64..1_000_000) {
        for net in [iq_net(), paley_net()] {
            let label = net.spec.name.clone();
            let pristine = AnalyticOracle::new(net);
            let g = pristine.network().graph().clone();
            let n = g.n() as u32;
            let stride = 1 + n as usize / 24;
            // Cut cables, light to crushing: at 50 % most of the
            // column is re-settled and whole regions fall off.
            for permille in [1u32, 5, 20, 80, 200, 500] {
                let cables = FaultSet::random_links(&g, f64::from(permille) / 1e3, seed);
                prop_assert!(!cables.is_empty());
                let case = format!("{label} seed {seed} {permille}‰");
                check_columns(&pristine.remask(&cables), stride, &[], &case);

                // The same draw as one-way faults, with dead routers —
                // a sampled destination and two drawn ones among them —
                // and entries the graph has no edge or no router for.
                let dst = (seed % u64::from(n)) as u32 / stride as u32 * stride as u32;
                let routers = FaultSet::random_routers(&g, 2.0 / f64::from(n), seed ^ 0xD1E);
                let no_edge = (1, (seed % 7) as u32 + 2);
                let stray = FaultSet::from_links([(0, n), (n + 3, n + 4)])
                    .union(&FaultSet::from_directed_links([(dst, dst), no_edge]))
                    .union(&FaultSet::from_routers([n + 9]));
                let mixed = one_way(&cables, seed)
                    .union(&routers)
                    .union(&FaultSet::from_routers([dst]))
                    .union(&stray);
                let also = routers.failed_routers();
                check_columns(&pristine.remask(&mixed), stride, also, &format!("{case} mixed"));
            }
        }
    }

    #[test]
    fn escalated_answers_equal_the_remasked_table(seed in 0u64..1_000_000, pct in 5u32..40) {
        // 104 and 279 routers: small enough to re-mask a full table.
        let small = [
            SupernodeKind::InductiveQuad { degree: 3 },
            SupernodeKind::Paley { degree: 4 },
        ];
        for (q, supernode) in [3, 5].into_iter().zip(small) {
            let config = PolarStarConfig { q, supernode };
            let net = PolarStarNetwork::build(config, 1).unwrap();
            let n = net.spec.routers() as u32;
            let cables = FaultSet::random_links(&net.spec.graph, f64::from(pct) / 100.0, seed);
            let faults = one_way(&cables, seed)
                .union(&FaultSet::random_links(&net.spec.graph, 0.05, seed ^ 1))
                .union(&FaultSet::from_routers([(seed % u64::from(n)) as u32]));
            let table = Oracle::new(Arc::new(net.spec.clone())).remask(&faults, 1);
            let analytic = AnalyticOracle::new(net).remask(&faults);
            let (mut got, mut want) = (Vec::new(), Vec::new());
            let mut escalated = 0;
            // A seeded eleventh of all pairs.
            let all = (0..n).flat_map(|src| (0..n).map(move |dst| (src, dst)));
            for (src, dst) in all.skip((seed % 11) as usize).step_by(11) {
                if analytic.regime(src, dst) != Regime::Escalated {
                    continue;
                }
                escalated += 1;
                let case = format!("{} seed {seed} {pct}%: {src}→{dst}", config.label());
                let distance = analytic.distance(src, dst);
                prop_assert_eq!(distance, table.distance(src, dst), "{}", case);
                got.clear();
                want.clear();
                analytic.min_next_hops(src, dst, &mut got).unwrap();
                table.min_next_hops(src, dst, &mut want).unwrap();
                prop_assert_eq!(&got, &want, "ports {}", case);
                prop_assert_eq!(analytic.next_hop(src, dst), Ok(want[0]), "{}", case);
                let paths = analytic.k_paths(src, dst, 4);
                prop_assert_eq!(paths, table.k_paths(src, dst, 4), "{}", case);
            }
            prop_assert!(escalated > 0, "{} seed {seed} {pct}%: none escalated", config.label());
        }
    }
}
