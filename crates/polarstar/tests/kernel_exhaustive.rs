//! The §9.2 kernel's bounded probe and its adjacency bit rows, pinned
//! over every router pair of every feasible PolarStar up to a radix
//! bound. Release only (`#[ignore]`d; CI runs it with `-- --ignored`
//! under its own timeout):
//!
//! ```sh
//! cargo test --release -p polarstar --test kernel_exhaustive -- --ignored --nocapture
//! ```
//!
//! For each config of `enumerate_configs(d)`, `d ≤ MAX_RADIX`, it
//! asserts `within(s, t, h) == (bfs_distances(s)[t] ≤ h)` for every
//! ordered router pair and h ∈ {0, 1, 2, 3}, and that both factors'
//! bit rows equal `Graph::has_edge` on every vertex pair. That is 214
//! configs, PS-Pal(q2,d'0) (7 routers) up to PS-IQ(q19,d'8) (6 858
//! routers), 70–85 s on a 2-core host; each is printed with its size and
//! seconds, and the count per degree is asserted, so a change to the
//! enumeration shows up here rather than silently shrinking the check.

use polarstar::design::enumerate_configs;
use polarstar::network::PolarStarNetwork;
use polarstar::routing::AnalyticRouter;
use polarstar_graph::traversal::bfs_distances;
use std::time::Instant;

/// Largest network degree checked.
const MAX_RADIX: usize = 28;

/// `enumerate_configs(d).len()` for d = 0 ..= MAX_RADIX.
const CONFIGS_PER_DEGREE: [usize; MAX_RADIX + 1] = [
    0, 0, 0, 2, 2, 3, 4, 4, 6, 6, 7, 6, 10, 6, 9, 6, 10, 10, 11, 6, 13, 10, 11, 9, 15, 9, 14, 8, 17,
];

#[test]
#[ignore = "release-only: every router pair of every config up to the radix bound"]
fn within_and_bit_rows_match_bfs_on_every_config() {
    for (d, &count) in CONFIGS_PER_DEGREE.iter().enumerate() {
        let configs = enumerate_configs(d);
        assert_eq!(configs.len(), count, "configs of degree {d}");
        for cfg in configs {
            let t0 = Instant::now();
            let label = cfg.label();
            let net = PolarStarNetwork::build(cfg, 1).unwrap();
            let router = AnalyticRouter::new(net.clone());

            let (structure, supernode) = (&net.er.graph, &net.supernode.graph);
            for x in 0..structure.n() as u32 {
                for y in 0..structure.n() as u32 {
                    let want = structure.has_edge(x, y);
                    assert_eq!(
                        router.structure_adjacent(x, y),
                        want,
                        "{label}: structure {x}~{y}"
                    );
                }
            }
            for a in 0..supernode.n() as u32 {
                for b in 0..supernode.n() as u32 {
                    let want = supernode.has_edge(a, b);
                    assert_eq!(
                        router.supernode_adjacent(a, b),
                        want,
                        "{label}: supernode {a}~{b}"
                    );
                }
            }

            let n = net.spec.routers() as u32;
            for s in 0..n {
                let dist = bfs_distances(net.graph(), s);
                for t in 0..n {
                    for h in 0..=3 {
                        let want = dist[t as usize] <= h;
                        assert_eq!(
                            router.within(s, t, h),
                            want,
                            "{label}: within({s}, {t}, {h})"
                        );
                    }
                }
            }
            println!(
                "d = {d:2} {label:16} {n:5} routers  {:.2} s",
                t0.elapsed().as_secs_f64()
            );
        }
    }
}
