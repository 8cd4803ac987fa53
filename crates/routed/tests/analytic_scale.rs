//! The table-free backend at the paper's horizon: radix 64,
//! `best_config(64)`, 79 506 routers. Release only (`#[ignore]`d; CI
//! runs it with `-- --ignored` under its own timeout):
//!
//! ```sh
//! cargo test --release -p polarstar-routed --test analytic_scale -- --ignored --nocapture
//! ```
//!
//! At degree 64 the walk is past its degree rule: three hops out it
//! probes "within 2 hops of the destination" with the kernel's templates,
//! not with a scan of neighbor lists. No `RouteTable` fits at this size
//! (`RouteTable::for_spec` asserts n < 65 535, and one byte a pair would
//! be 6.3 GB), so sampled queries are checked against degraded-graph BFS
//! columns (`topo::oracle::masked_distance_column`) read by the table's
//! own rules: the distance, the ascending minimal ports
//! (`column_next_hops`), the first one, and `k_paths(4)` by the table's
//! k-path walk (`column_k_paths`). Pristine and under 1 % cut links; the
//! sources of each destination are its neighbors, the routers two hops
//! out through its first neighbor, and random routers. Each mask prints
//! its regime census and the µs a `k = 4` route-service query takes.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_routed::{AnalyticOracle, Oracle, QueryBatch, Regime};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::{
    column_k_paths, column_next_hops, column_next_hops_from, masked_distance_column, PathOracle,
    RouteError,
};
use std::time::Instant;

/// Paths compared and asked for per query, as the churn workload asks.
const K: usize = 4;
/// Destinations checked per mask.
const DESTINATIONS: u32 = 16;
/// Random sources per destination, on top of its near ones.
const RANDOM_SOURCES: u32 = 128;
/// Queries in the timed batch, answered `REPS` times.
const TIMED: usize = 20_000;
const REPS: usize = 3;

/// Deterministic xorshift stream for the samples.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u32) -> u32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % u64::from(n)) as u32
    }
}

/// Check sampled queries of `analytic` against BFS columns under
/// `faults`, print the census and the timed µs a query, and return the
/// number of pairs checked per regime.
fn check_mask(base: &AnalyticOracle, faults: &FaultSet, case: &str) -> [usize; 4] {
    let analytic = base.remask(faults);
    let g = analytic.network().graph();
    let n = g.n() as u32;
    let mask = faults.compile(g);
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    let mut census = [0; 4];
    let (mut col, mut hops) = (Vec::new(), Vec::new());
    let mut want_paths: Vec<Vec<u32>> = Vec::new();
    for _ in 0..DESTINATIONS {
        let dst = rng.below(n);
        masked_distance_column(g, &mask, dst, &mut col);
        let near = g.neighbors(dst);
        let two_out = g.neighbors(near[0]);
        let random: Vec<u32> = (0..RANDOM_SOURCES).map(|_| rng.below(n)).collect();
        for &src in near.iter().chain(two_out).chain(&random) {
            if src == dst {
                continue;
            }
            let pair = format!("{case}: {src}→{dst}");
            let regime = analytic.regime(src, dst);
            census[regime as usize] += 1;
            let distance = analytic.distance(src, dst);
            if col[src as usize] == u32::MAX {
                assert_eq!(
                    distance,
                    Err(RouteError::Unreachable { src, dst }),
                    "{pair}"
                );
                continue;
            }
            let d = col[src as usize];
            assert_eq!(distance, Ok(d), "distance {pair}");
            let want_hops: Vec<u32> = column_next_hops(g, &col, src, &mask)
                .map(|(_, nb)| nb)
                .collect();
            hops.clear();
            analytic.min_next_hops(src, dst, &mut hops).unwrap();
            assert_eq!(hops, want_hops, "ports {pair}");
            assert_eq!(
                analytic.next_hop(src, dst),
                Ok(want_hops[0]),
                "next hop {pair}"
            );
            want_paths.clear();
            let hop_from = |r, from| column_next_hops_from(g, &col, r, from, &mask).next();
            column_k_paths(g, src, dst, d, K, hop_from, &mut want_paths);
            let paths = analytic.k_paths(src, dst, K).unwrap();
            assert_eq!(paths, want_paths, "k_paths {pair}");
        }
    }

    let oracle = Oracle::new_analytic(analytic.network().clone()).remask(faults, 1);
    let batch = QueryBatch::random(TIMED, n, K as u32, 7);
    let mut us: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            let answers = oracle.answer_batch(&batch);
            assert_eq!(answers.len(), TIMED);
            t0.elapsed().as_secs_f64() * 1e6 / TIMED as f64
        })
        .collect();
    us.sort_by(f64::total_cmp);
    println!(
        "{case}: [pristine, intact, escalated, unreachable] = {census:?}, \
         {:.2} µs a k = {K} query (median of {REPS} × {TIMED})",
        us[REPS / 2]
    );
    census
}

#[test]
#[ignore = "release-only: 79 506-router network, BFS columns"]
fn radix_64_answers_equal_bfs_columns() {
    let t0 = Instant::now();
    let net = PolarStarNetwork::build(best_config(64).unwrap(), 1).unwrap();
    assert_eq!(net.spec.routers(), 79_506);
    // The walk scans neighbor lists only up to degree 24.
    assert!(net.graph().min_degree() > 24);
    let base = AnalyticOracle::new(net);
    println!("build: {:.1} s", t0.elapsed().as_secs_f64());

    let pristine = check_mask(&base, &FaultSet::empty(), "pristine");
    assert!(pristine[Regime::Pristine as usize] > 0, "{pristine:?}");
    assert_eq!(pristine[Regime::Pristine as usize], pristine.iter().sum());

    let g = base.network().graph();
    let links = FaultSet::random_links(g, 0.01, 1);
    let faulted = check_mask(&base, &links, "1% links");
    assert!(
        faulted[Regime::MinimalDagIntact as usize] > 0,
        "{faulted:?}"
    );
    assert!(faulted[Regime::Escalated as usize] > 0, "{faulted:?}");
}
