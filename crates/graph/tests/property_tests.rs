//! Property-based tests for the graph substrate: CSR invariants, BFS
//! metric properties and partition correctness on randomized inputs.

use polarstar_graph::partition::{cut_size, min_bisection};
use polarstar_graph::random::{gnm, random_regular};
use polarstar_graph::traversal;
use polarstar_graph::{Graph, GraphBuilder};
use proptest::prelude::*;

/// Arbitrary edge list over n ≤ 40 vertices (possibly with duplicates
/// and self-loops, which the builder must normalize away).
fn edge_list() -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..40).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..120);
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_invariants_hold((n, edges) in edge_list()) {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in &edges {
            b.add_edge(u, v);
        }
        let g = b.build();
        prop_assert!(g.validate().is_ok());
        // Edge count equals distinct non-loop normalized pairs.
        let mut set: Vec<(u32, u32)> = edges
            .iter()
            .filter(|&&(u, v)| u != v)
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        set.sort_unstable();
        set.dedup();
        prop_assert_eq!(g.m(), set.len());
        for (u, v) in set {
            prop_assert!(g.has_edge(u, v));
            prop_assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn bfs_distances_are_a_metric((n, edges) in edge_list()) {
        let g = Graph::from_edges(n, &edges);
        let d0 = traversal::bfs_distances(&g, 0);
        // Edge relaxation: |d(u) − d(v)| ≤ 1 across every edge.
        for (u, v) in g.edges() {
            let (du, dv) = (d0[u as usize], d0[v as usize]);
            if du != traversal::UNREACHABLE && dv != traversal::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1, "edge ({u},{v}): {du} vs {dv}");
            } else {
                // Both endpoints share reachability from 0.
                prop_assert_eq!(du, dv);
            }
        }
        // Symmetry: d(0 → v) == d(v → 0).
        for v in 0..n as u32 {
            let dv = traversal::bfs_distances(&g, v);
            prop_assert_eq!(dv[0], d0[v as usize]);
        }
    }

    #[test]
    fn block_swept_metrics_equal_one_bfs_per_vertex(
        n in 1usize..150,
        edges in prop::collection::vec((0u32..150, 0u32..150), 0..300),
    ) {
        // Several 64-source blocks, often disconnected: the histogram
        // metrics against the scalar BFS from every vertex.
        let edges: Vec<(u32, u32)> =
            edges.into_iter().filter(|&(u, v)| (u as usize) < n && (v as usize) < n).collect();
        let g = Graph::from_edges(n, &edges);
        let mut hist: Vec<u64> = Vec::new();
        let (mut sum, mut count, mut connected) = (0u64, 0u64, true);
        for u in 0..n as u32 {
            for (v, &d) in traversal::bfs_distances(&g, u).iter().enumerate() {
                if d == traversal::UNREACHABLE {
                    connected = false;
                } else if v as u32 != u {
                    sum += u64::from(d);
                    count += 1;
                    if (v as u32) > u {
                        if hist.len() <= d as usize {
                            hist.resize(d as usize + 1, 0);
                        }
                        hist[d as usize] += 1;
                    }
                }
            }
        }
        let far = hist.len().saturating_sub(1) as u32;
        prop_assert_eq!(traversal::distance_histogram(&g), hist);
        prop_assert_eq!(traversal::diameter(&g), connected.then_some(far));
        prop_assert_eq!(traversal::reachable_diameter(&g), (far > 0).then_some(far));
        let apl = (n >= 2 && count > 0).then(|| sum as f64 / count as f64);
        prop_assert_eq!(traversal::avg_path_length(&g), apl);
    }

    #[test]
    fn apl_between_one_and_diameter((n, edges) in edge_list()) {
        let g = Graph::from_edges(n, &edges);
        if let (Some(d), Some(apl)) = (traversal::diameter(&g), traversal::avg_path_length(&g)) {
            prop_assert!(apl >= 1.0);
            prop_assert!(apl <= d as f64 + 1e-9);
        }
    }

    #[test]
    fn bisection_cut_consistent(n in 4usize..30, m_extra in 0usize..40, seed in 0u64..1000) {
        let max_m = n * (n - 1) / 2;
        let g = gnm(n, (n + m_extra).min(max_m), seed);
        let bi = min_bisection(&g, 3, seed);
        prop_assert_eq!(bi.cut, cut_size(&g, &bi.side));
        let ones = bi.side.iter().filter(|&&s| s == 1).count();
        let tol = (n / 50).max(1);
        prop_assert!(ones + tol >= n / 2 && ones <= n - n / 2 + tol);
    }

    #[test]
    fn random_regular_is_regular(k in 1usize..6, seed in 0u64..500) {
        // n·d even by construction: n = 2k + 8, d = 4.
        let n = 2 * k + 8;
        let g = random_regular(n, 4, seed).unwrap();
        prop_assert!(g.is_regular());
        prop_assert_eq!(g.max_degree(), 4);
        prop_assert!(traversal::is_connected(&g));
    }

    #[test]
    fn without_edges_removes_exactly((n, edges) in edge_list()) {
        let g = Graph::from_edges(n, &edges);
        let all: Vec<(u32, u32)> = g.edges().collect();
        if all.is_empty() {
            return Ok(());
        }
        let removed = &all[..all.len() / 2];
        let h = g.without_edges(removed);
        prop_assert_eq!(h.m(), g.m() - removed.len());
        for &(u, v) in removed {
            prop_assert!(!h.has_edge(u, v));
        }
        for &(u, v) in &all[all.len() / 2..] {
            prop_assert!(h.has_edge(u, v));
        }
    }
}
