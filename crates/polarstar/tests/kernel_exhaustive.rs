//! The §9.2 kernel's bounded probe and its adjacency bit rows, pinned
//! over every router pair of every feasible PolarStar and Bundlefly up
//! to a radix bound. Those two tests are release only (`#[ignore]`d; CI
//! runs them with `-- --ignored` under their own timeout):
//!
//! ```sh
//! cargo test --release -p polarstar --test kernel_exhaustive -- --ignored --nocapture
//! ```
//!
//! For each star product it asserts `within(s, t, h) ==
//! (bfs_distances(s)[t] ≤ h)` for every ordered router pair and h ∈ {0,
//! 1, 2, 3}, and that both factors' bit rows equal `Graph::has_edge` on
//! every vertex pair. A 2-walk through a middle copy reads the set bits
//! of the structure rows' AND, so this pins those middles on ER_q and on
//! MMS alike. The products are:
//!
//! * the 214 configs of `enumerate_configs(d)`, `d ≤ MAX_RADIX`,
//!   PS-Pal(q2,d'0) (7 routers) up to PS-IQ(q19,d'8) (6 858 routers),
//!   the count per degree asserted; the PS-Pal(q,d'0) ones are PolarFly,
//!   ER_q with a one-vertex supernode, and are asserted present;
//! * Table 3's BF and every `best_params_for_degree(d)`, `d ≤ MAX_RADIX`:
//!   22 products, BF(q4,d'0) (32 routers) up to BF(q13,d'8) (5 746
//!   routers), each of which must build, the count asserted.
//!
//! Each product is printed with its size and seconds, so a change to an
//! enumeration shows up here rather than silently shrinking the check.
//!
//! The other tests run in every `cargo test` (debug included): the
//! kernel's `distance` and `within` against BFS on every pair of small
//! Inductive-Quad and Paley PolarStars and on sampled pairs of PS-IQ,
//! the radix-32 PolarStar and a radix-12 Paley one; the incremental
//! next hops a walk reads off `within`; and the refusal of router ids
//! past the product.

use polarstar::design::{
    best_config, best_config_with, enumerate_configs, PolarStarConfig, SupernodeKind,
};
use polarstar::network::PolarStarNetwork;
use polarstar_gf::primes::prime_powers_in;
use polarstar_graph::traversal::bfs_distances;
use polarstar_graph::Graph;
use polarstar_topo::bundlefly::{best_params_for_degree, bundlefly_factors, BundleflyParams};
use polarstar_topo::star::{DistanceKernel, StarProduct};
use std::time::Instant;

/// Largest network degree checked.
const MAX_RADIX: usize = 28;

/// `enumerate_configs(d).len()` for d = 0 ..= MAX_RADIX.
const CONFIGS_PER_DEGREE: [usize; MAX_RADIX + 1] = [
    0, 0, 0, 2, 2, 3, 4, 4, 6, 6, 7, 6, 10, 6, 9, 6, 10, 10, 11, 6, 13, 10, 11, 9, 15, 9, 14, 8, 17,
];

/// Bundlefly products checked: Table 3's BF plus the 21 other distinct
/// `best_params_for_degree(d)`, d ≤ MAX_RADIX.
const BUNDLEFLY_BUILT: usize = 22;

/// Check the kernel of `view` against BFS on `product`, its graph, and
/// print the product's size and seconds.
fn check(label: &str, view: &StarProduct<'_>, product: &Graph, t0: Instant) {
    let kernel = DistanceKernel::new(view);
    let (structure, supernode) = (view.structure(), &view.supernode().graph);
    for x in 0..structure.n() as u32 {
        for y in 0..structure.n() as u32 {
            let want = structure.has_edge(x, y);
            assert_eq!(
                kernel.structure_adjacent(x, y),
                want,
                "{label}: structure {x}~{y}"
            );
        }
    }
    for a in 0..supernode.n() as u32 {
        for b in 0..supernode.n() as u32 {
            let want = supernode.has_edge(a, b);
            assert_eq!(
                kernel.supernode_adjacent(a, b),
                want,
                "{label}: supernode {a}~{b}"
            );
        }
    }

    let n = product.n() as u32;
    for s in 0..n {
        let dist = bfs_distances(product, s);
        for t in 0..n {
            for h in 0..=3 {
                let want = dist[t as usize] <= h;
                assert_eq!(
                    kernel.within(view, s, t, h),
                    want,
                    "{label}: within({s}, {t}, {h})"
                );
            }
        }
    }
    println!(
        "{label:16} {n:5} routers  {:.2} s",
        t0.elapsed().as_secs_f64()
    );
}

#[test]
#[ignore = "release-only: every router pair of every config up to the radix bound"]
fn within_and_bit_rows_match_bfs_on_every_config() {
    let mut labels = Vec::new();
    for (d, &count) in CONFIGS_PER_DEGREE.iter().enumerate() {
        let configs = enumerate_configs(d);
        assert_eq!(configs.len(), count, "configs of degree {d}");
        for cfg in configs {
            let t0 = Instant::now();
            let (net, label) = (PolarStarNetwork::build(cfg, 1).unwrap(), cfg.label());
            check(&format!("d = {d:2} {label}"), &net.view(), net.graph(), t0);
            labels.push(label);
        }
    }
    assert_eq!(labels.len(), 214);
    // PolarFly is the K1 case: ER_q with a one-vertex supernode, one
    // config for every prime power q with q + 1 ≤ MAX_RADIX.
    for q in prime_powers_in(2, MAX_RADIX as u64 - 1) {
        let polarfly = format!("PS-Pal(q{q},d'0)");
        assert!(labels.contains(&polarfly), "{polarfly} not checked");
    }
}

#[test]
#[ignore = "release-only: every router pair of every Bundlefly up to the radix bound"]
fn within_and_bit_rows_match_bfs_on_bundlefly() {
    let table3 = BundleflyParams {
        q: 7,
        dprime: 4,
        p: 5,
    };
    let mut params = vec![table3];
    for best in (0..=MAX_RADIX as u64).filter_map(best_params_for_degree) {
        if !params
            .iter()
            .any(|b| (b.q, b.dprime) == (best.q, best.dprime))
        {
            params.push(best);
        }
    }
    assert_eq!(params.len(), BUNDLEFLY_BUILT, "Bundlefly products");
    for p in params {
        let t0 = Instant::now();
        let label = format!("BF(q{},d'{})", p.q, p.dprime);
        let (structure, supernode) = bundlefly_factors(p).expect(&label);
        let view = StarProduct::new(&structure, &[], &supernode);
        check(&label, &view, &view.graph(), t0);
    }
}

/// Check, on every `s_step`-th source × `t_step`-th destination of
/// `net`, that the kernel's distance equals the BFS distance and that
/// `within(s, t, h)` answers `distance ≤ h` for every h ≤ 3. Returns the
/// number of pairs at BFS distance 2.
fn check_pairs_minimal(net: &PolarStarNetwork, s_step: usize, t_step: usize) -> u64 {
    let view = net.view();
    let kernel = DistanceKernel::new(&view);
    let n = net.spec.routers() as u32;
    let label = net.config.label();
    let mut at_two = 0;
    for s in (0..n).step_by(s_step) {
        let dist = bfs_distances(net.graph(), s);
        for t in (0..n).step_by(t_step) {
            let want = dist[t as usize];
            at_two += u64::from(want == 2);
            assert_eq!(
                kernel.distance(&view, s, t),
                want,
                "{label}: kernel {s}→{t}"
            );
            for h in 0..=3 {
                let got = kernel.within(&view, s, t, h);
                assert_eq!(got, want <= h, "{label}: {s}→{t} ≤ {h}");
            }
        }
    }
    at_two
}

#[test]
fn iq_routing_matches_bfs_everywhere() {
    for (q, degree) in [(2, 3), (3, 3), (4, 4), (5, 3)] {
        let cfg = PolarStarConfig {
            q,
            supernode: SupernodeKind::InductiveQuad { degree },
        };
        let net = PolarStarNetwork::build(cfg, 1).unwrap();
        let at_two = check_pairs_minimal(&net, 1, 1);
        assert!(at_two > 0, "{}: no distance-2 pair checked", cfg.label());
    }
}

#[test]
fn paley_routing_matches_bfs_everywhere() {
    for (q, degree) in [(3, 2), (4, 2), (5, 4)] {
        let cfg = PolarStarConfig {
            q,
            supernode: SupernodeKind::Paley { degree },
        };
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
    let view = net.view();
    let kernel = DistanceKernel::new(&view);
    let n = 1064;
    fn refused<T>(kernel: &DistanceKernel, probe: impl FnOnce(&DistanceKernel) -> T) {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| probe(kernel)))
            .err()
            .expect("an id ≥ n must be refused");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("router id out of range"), "{msg}");
    }
    refused(&kernel, |k| k.distance(&view, 0, n));
    refused(&kernel, |k| k.distance(&view, 5, n + 3));
    refused(&kernel, |k| k.distance(&view, n, 0));
    refused(&kernel, |k| k.within(&view, 0, n, 2));
    refused(&kernel, |k| k.within(&view, n, n, 0));
    assert_eq!(kernel.distance(&view, n - 1, n - 1), 0);
    assert!(kernel.within(&view, 0, n - 1, 3));
    assert!(!kernel.structure_adjacent(0, 133) && !kernel.supernode_adjacent(8, 0));
}

#[test]
fn incremental_next_hops_match_bfs() {
    // §9.2: "amenable to incremental routing and therefore, suitable
    // for destination-based routing" — at a router d hops out, the
    // neighbors the kernel puts within d − 1 are exactly the BFS
    // minimal next hops, and there is at least one.
    let net = PolarStarNetwork::build(best_config(10).unwrap(), 1).unwrap();
    let view = net.view();
    let kernel = DistanceKernel::new(&view);
    let n = net.spec.routers() as u32;
    for t in (0..n).step_by(7) {
        let dist = bfs_distances(net.graph(), t);
        for s in (0..n).step_by(11).filter(|&s| s != t) {
            let d = dist[s as usize];
            let mut hops = 0;
            for &nb in net.graph().neighbors(s) {
                let closer = kernel.within(&view, nb, t, d - 1);
                assert_eq!(closer, dist[nb as usize] == d - 1, "{s}→{t} via {nb}");
                hops += u32::from(closer);
            }
            assert!(hops > 0, "{s}→{t}: no minimal next hop");
        }
    }
}
