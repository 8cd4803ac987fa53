//! Every query of the table-free backend on PS-IQ, pinned against the
//! re-masked route table. Release only (`#[ignore]`d; CI runs it with
//! `-- --ignored` under its own timeout):
//!
//! ```sh
//! cargo test --release -p polarstar-routed --test escalation_exhaustive -- --ignored --nocapture
//! ```
//!
//! For all 1 064² ordered router pairs, pristine, under the
//! `routed_analytic_churn` link masks (1 / 2.5 / 5 % of the cables,
//! seeds 1 and 7) and under one mixed mask (one-way cables ∪ 5 % cut
//! cables ∪ a dead router), [`AnalyticOracle`] must give the
//! `distance` (or the error), `min_next_hops`, `next_hop` and
//! `k_paths(4)` of a `RouteTable` re-masked to the same faults, in every
//! [`Regime`]: the kernel-only pristine walk, the masked walk over an
//! intact minimal DAG, both escalation branches and unreachable pairs.
//! A query escalates when the mask cuts every pristine-minimal path;
//! the oracle then walks the DAG again with one hop of slack and, only
//! if that fails too, reads the answer off the destination's repaired
//! distance column. The test asserts that both escalation branches
//! answered some pair: the slack walk (degraded distance one more than
//! pristine) and the column (two or more). Each mask prints its census
//! and seconds.

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::RouteTable;
use polarstar_routed::{AnalyticOracle, Regime};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::PathOracle;
use std::time::Instant;

/// Paths compared per escalated pair, as the churn workload asks.
const K: usize = 4;

/// The churn workload's network: Table 3 PS-IQ, 1 064 routers.
fn psiq() -> PolarStarNetwork {
    PolarStarNetwork::build(best_config(15).unwrap(), 5).unwrap()
}

/// One direction of each cable of `cables` cut, chosen by `seed`.
fn one_way(cables: &FaultSet, seed: u32) -> FaultSet {
    let links = cables.failed_links().iter().copied();
    FaultSet::from_directed_links(links.filter(|&(u, v)| (u < v) == ((u ^ v ^ seed) & 1 == 0)))
}

/// The pairs of one mask, by the regime that answered them, and the
/// escalated ones by the branch that did.
#[derive(Debug, Default)]
struct Census {
    pristine: usize,
    intact: usize,
    escalated: usize,
    /// Degraded distance = pristine + 1: the slack walk's.
    slack: usize,
    /// Degraded distance ≥ pristine + 2: the repaired column's.
    column: usize,
    unreachable: usize,
}

impl Census {
    fn absorb(&mut self, c: Census) {
        self.pristine += c.pristine;
        self.intact += c.intact;
        self.escalated += c.escalated;
        self.slack += c.slack;
        self.column += c.column;
        self.unreachable += c.unreachable;
    }
}

fn check_mask(base: &AnalyticOracle, table: &RouteTable, faults: &FaultSet, case: &str) -> Census {
    let t0 = Instant::now();
    let spec = &base.network().spec;
    let masked_table = table.remask(spec, faults);
    let analytic = base.remask(faults);
    let n = analytic.num_routers() as u32;
    let mut census = Census::default();
    let (mut ports, mut table_ports) = (Vec::new(), Vec::new());
    for src in 0..n {
        for dst in 0..n {
            let pair = format!("{case}: {src}→{dst}");
            let regime = analytic.regime(src, dst);
            let distance = analytic.distance(src, dst);
            let want = PathOracle::distance(&masked_table, src, dst);
            assert_eq!(distance, want, "distance {pair}");
            let Ok(d) = distance else {
                assert_eq!(regime, Regime::Unreachable, "regime {pair}");
                let error = Err(want.unwrap_err());
                assert_eq!(analytic.next_hop(src, dst), error, "next hop {pair}");
                let paths = analytic.k_paths(src, dst, K);
                assert_eq!(paths, masked_table.k_paths(src, dst, K), "k_paths {pair}");
                census.unreachable += 1;
                continue;
            };
            let pristine = base.distance(src, dst).unwrap();
            match regime {
                Regime::Pristine => census.pristine += 1,
                Regime::MinimalDagIntact => census.intact += 1,
                Regime::Escalated => {
                    census.escalated += 1;
                    assert!(d > pristine, "escalated but not longer: {pair}");
                    if d == pristine + 1 {
                        census.slack += 1;
                    } else {
                        census.column += 1;
                    }
                }
                Regime::Unreachable => panic!("regime of a reachable pair: {pair}"),
            }
            if regime != Regime::Escalated {
                assert_eq!(d, pristine, "{regime:?} but longer: {pair}");
            }
            ports.clear();
            table_ports.clear();
            analytic.min_next_hops(src, dst, &mut ports).unwrap();
            masked_table
                .min_next_hops(src, dst, &mut table_ports)
                .unwrap();
            assert_eq!(ports, table_ports, "ports {pair}");
            let next_hop = Ok(table_ports.first().copied().unwrap_or(dst));
            assert_eq!(analytic.next_hop(src, dst), next_hop, "next hop {pair}");
            let paths = analytic.k_paths(src, dst, K);
            assert_eq!(paths, masked_table.k_paths(src, dst, K), "k_paths {pair}");
        }
    }
    println!("{case}: {census:?}, {:.1} s", t0.elapsed().as_secs_f64());
    census
}

#[test]
#[ignore = "release-only: every PS-IQ router pair, pristine and under seven fault masks"]
fn every_answer_equals_the_remasked_table_on_every_pair() {
    let net = psiq();
    let table = RouteTable::for_spec(&net.spec);
    let base = AnalyticOracle::new(net);
    let g = base.network().graph().clone();
    let n = g.n();

    let pristine = check_mask(&base, &table, &FaultSet::empty(), "pristine");
    assert_eq!(pristine.pristine, n * n, "pristine: {pristine:?}");

    let mut total = Census::default();
    for seed in [1, 7] {
        for fraction in [0.01, 0.025, 0.05] {
            let faults = FaultSet::random_links(&g, fraction, seed);
            let case = format!("seed {seed}, {}% links", fraction * 100.0);
            let census = check_mask(&base, &table, &faults, &case);
            assert!(census.escalated > 0, "{case}: nothing escalated");
            assert_eq!(census.pristine, 0, "{case}: {census:?}");
            total.absorb(census);
        }
    }
    let mixed = one_way(&FaultSet::random_links(&g, 0.025, 3), 3)
        .union(&FaultSet::random_links(&g, 0.05, 11))
        .union(&FaultSet::from_routers([517]));
    let case = "mixed one-way + 5% links + router 517";
    let census = check_mask(&base, &table, &mixed, case);
    assert!(census.slack > 0 && census.column > 0, "mixed: {census:?}");
    assert!(census.unreachable >= 2 * (n - 1), "mixed: {census:?}");
    total.absorb(census);
    println!("faulted masks: {total:?}");
    assert!(
        total.intact > 0,
        "no pair resolved by the masked minimal walk"
    );
    assert!(total.slack > 0, "no pair resolved by the slack walk");
    assert!(total.column > 0, "no pair resolved by the repaired column");
}
