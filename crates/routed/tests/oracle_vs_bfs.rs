//! Ground-truth property tests: every oracle answer must equal a fresh
//! BFS over the (possibly fault-degraded) router graph — on the ER(5)
//! polarity graph, a pristine PolarStar, and fault-masked PolarStars
//! drawn from random `FaultSet` seeds — and the analytic backend's
//! `path` is the BFS-minimal, lexicographically first path on the
//! Inductive-Quad and Paley PolarStars of degree 7–12.

use polarstar::design::{best_config, best_config_with};
use polarstar::network::PolarStarNetwork;
use polarstar_graph::{traversal, Graph};
use polarstar_routed::{Oracle, Query};
use polarstar_topo::er::ErGraph;
use polarstar_topo::fault::FaultSet;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::oracle::{PathOracle, RouteError};
use proptest::prelude::*;
use std::sync::Arc;

/// Assert that the oracle's answers for every (src, dst) pair match a
/// fresh BFS over `truth` (the degraded router graph).
fn check_against_bfs(oracle: &Oracle, truth: &Graph) {
    let n = truth.n() as u32;
    assert_eq!(oracle.num_routers(), truth.n());
    for dst in 0..n {
        let dist = traversal::bfs_distances(truth, dst);
        for src in 0..n {
            let want = dist[src as usize];
            match PathOracle::distance(oracle, src, dst) {
                Ok(d) => assert_eq!(d, want, "distance {src}->{dst}"),
                Err(RouteError::Unreachable { .. }) => {
                    assert_eq!(want, traversal::UNREACHABLE, "{src}->{dst} severed")
                }
                Err(e) => panic!("unexpected error for {src}->{dst}: {e}"),
            }
            if want == traversal::UNREACHABLE || src == dst {
                continue;
            }
            // Next hops: exactly the neighbors one hop closer, ascending.
            let mut hops = Vec::new();
            oracle.min_next_hops(src, dst, &mut hops).unwrap();
            let want_hops: Vec<u32> = truth
                .neighbors(src)
                .iter()
                .copied()
                .filter(|&nb| dist[nb as usize].saturating_add(1) == want)
                .collect();
            assert_eq!(hops, want_hops, "next hops {src}->{dst}");
        }
    }
}

/// Spot-check full answers (paths, alternatives) on a sample of pairs.
fn check_answers(oracle: &Oracle, truth: &Graph, pairs: impl Iterator<Item = (u32, u32)>) {
    for (src, dst) in pairs {
        let a = oracle.answer(Query { src, dst, k: 4 });
        let dist = traversal::bfs_distances(truth, dst);
        let want = dist[src as usize];
        if want == traversal::UNREACHABLE {
            assert!(!a.reachable(), "{src}->{dst}");
            continue;
        }
        assert_eq!(a.distance, Some(want));
        assert_eq!(a.path.len() as u32, want + 1, "path hop count");
        assert_eq!((a.path[0], *a.path.last().unwrap()), (src, dst));
        for alt in &a.alternatives {
            assert_eq!(alt.len() as u32, want + 1, "alternatives all minimal");
            for w in alt.windows(2) {
                assert!(truth.has_edge(w[0], w[1]), "edge {}-{}", w[0], w[1]);
            }
        }
        let mut dedup = a.alternatives.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), a.alternatives.len(), "alternatives distinct");
    }
}

#[test]
fn er5_matches_fresh_bfs_exhaustively() {
    let g = ErGraph::new(5).unwrap().graph;
    let spec = NetworkSpec::uniform("ER_5", g.clone(), 1);
    let oracle = Oracle::new(Arc::new(spec));
    check_against_bfs(&oracle, &g);
    let n = g.n() as u32;
    check_answers(
        &oracle,
        &g,
        (0..n).flat_map(|s| (0..n).map(move |d| (s, d))),
    );
}

#[test]
fn pristine_polarstar_matches_fresh_bfs() {
    let net = PolarStarNetwork::build(best_config(9).unwrap(), 1).unwrap();
    let g = net.spec.graph.clone();
    let oracle = Oracle::new(Arc::new(net.spec));
    check_against_bfs(&oracle, &g);
}

/// The analytic backend's `path` on the largest pristine Inductive-Quad
/// and Paley PolarStar of every degree 7–12: toward every `step`-th
/// destination, from every source, it is the path that takes at each
/// router the first neighbor (CSR order) one BFS hop closer — of BFS
/// length, at most 3 hops, and lexicographically first.
#[test]
fn analytic_paths_are_the_first_bfs_minimal_paths_at_degree_7_to_12() {
    let mut checked = 0;
    for degree in 7..=12 {
        for iq in [true, false] {
            let Some(cfg) = best_config_with(degree, iq) else {
                continue;
            };
            let net = PolarStarNetwork::build(cfg, 1).unwrap();
            let g = net.spec.graph.clone();
            assert!(g.max_degree() <= degree, "{}", cfg.label());
            let oracle = Oracle::new_analytic(net);
            let n = g.n() as u32;
            for dst in (0..n).step_by((n as usize / 32).max(1)) {
                let dist = traversal::bfs_distances(&g, dst);
                for src in 0..n {
                    let mut want = vec![src];
                    while let Some(&cur) = want.last().filter(|&&v| v != dst) {
                        let closer = |&nb: &u32| dist[nb as usize] + 1 == dist[cur as usize];
                        want.push(g.neighbors(cur).iter().copied().find(closer).unwrap());
                    }
                    assert!(want.len() <= 4, "{}: {src}->{dst} over 3 hops", cfg.label());
                    let got = oracle.path(src, dst);
                    assert_eq!(got, Ok(want), "{}: path {src}->{dst}", cfg.label());
                }
            }
            checked += 1;
        }
    }
    assert!(checked >= 10, "only {checked} configs of degree 7–12");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn faulted_polarstar_matches_fresh_bfs(
        seed in 0u64..1_000_000,
        frac_pct in 2u32..25,
    ) {
        let net = PolarStarNetwork::build(best_config(9).unwrap(), 1).unwrap();
        let faults = FaultSet::random_links(&net.spec.graph, f64::from(frac_pct) / 100.0, seed);
        let spec = net.spec.with_faults(faults.clone());
        let truth = spec.degraded_graph();
        let oracle = Oracle::new(Arc::new(spec));
        check_against_bfs(&oracle, &truth);
        // Sampled full answers under the mask.
        let n = truth.n() as u32;
        let pairs = (0..16u32).map(|i| ((i * 37) % n, (i * 61 + 13) % n));
        check_answers(&oracle, &truth, pairs);
        // Epoch re-masking from the pristine base agrees with building
        // the masked oracle from scratch.
        let base = Oracle::new(Arc::new(
            PolarStarNetwork::build(best_config(9).unwrap(), 1).unwrap().spec,
        ));
        check_against_bfs(&base.remask(&faults, 1), &truth);
    }
}
