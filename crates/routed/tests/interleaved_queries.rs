//! One thread, many destinations: the analytic backend's per-query
//! destination marks (a thread-local bit set, set after a query's early
//! returns and cleared on every exit) must never leak from one query
//! into the next.
//!
//! On two networks, one on each side of the walk's degree rule (PS-IQ,
//! degree 15, probes two hops out by scanning neighbor lists against
//! the marks; PS-Pal(q2, d′26), degree 28–29, by the kernel's
//! templates), pristine and under a mask of cut cables, one-way cables
//! and a dead router, a single thread answers a shuffled mix of
//! queries: out-of-range ids, dead sources and destinations, self-pairs,
//! escalations answered by the one-hop-slack walk and by the repaired
//! column, and plain pairs, at k ∈ {0, 1, 4, u32::MAX}, the networks and
//! masks interleaved too. Every answer must equal the re-masked
//! `RouteTable`'s, and the sharded batch path must stay byte-identical
//! to the sequential one.
//!
//! A stale mark can only add a router to the set, and the walk checks
//! its last hop by adjacency, so in a release build a leaked bit costs
//! time, not an answer. Debug builds (the plain `cargo test`) compare
//! every probe the marks answer with the kernel's, and fail on the first
//! leaked bit.

use polarstar::design::{best_config, PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_routed::{AnalyticOracle, Oracle, Query, QueryBatch, Regime};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::PathOracle;
use std::sync::Arc;

/// Path counts asked for, cycled through the queries.
const KS: [u32; 4] = [0, 1, 4, u32::MAX];

/// Pairs of each escalation branch collected per network.
const ESCALATED: usize = 24;

/// Deterministic xorshift stream for sampling and shuffling.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u32) -> u32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % u64::from(n)) as u32
    }
}

/// One network's four snapshots, pristine and masked, on both backends.
struct Snapshots {
    analytic: [Oracle; 2],
    table: [Oracle; 2],
    /// The masked snapshot's queries, then the pristine one's.
    queries: [Vec<Query>; 2],
}

/// The mix of queries for one network under `faults`, whose dead router
/// is `dead`: every kind named in the header, `ESCALATED` pairs of each
/// escalation branch, and as many plain pairs again.
fn mixed_pairs(
    net: &PolarStarNetwork,
    faults: &FaultSet,
    dead: u32,
    rng: &mut Rng,
) -> Vec<(u32, u32)> {
    let base = AnalyticOracle::new(net.clone());
    let masked = base.remask(faults);
    let n = masked.num_routers() as u32;
    let mut pairs = vec![
        (n, 0),
        (0, n + 3),
        (u32::MAX, u32::MAX),
        (dead, 0),
        (1, dead),
        (dead, dead),
        (0, 0),
        (n - 1, n - 1),
    ];
    let (mut slack, mut column) = (0, 0);
    for _ in 0..200 * n {
        if slack >= ESCALATED && column >= ESCALATED {
            break;
        }
        let (src, dst) = (rng.below(n), rng.below(n));
        if masked.regime(src, dst) != Regime::Escalated {
            continue;
        }
        let longer = masked
            .distance(src, dst)
            .map(|d| d - base.distance(src, dst).unwrap());
        let count = if longer == Ok(1) {
            &mut slack
        } else {
            &mut column
        };
        if *count < ESCALATED {
            *count += 1;
            pairs.push((src, dst));
        }
    }
    assert_eq!((slack, column), (ESCALATED, ESCALATED), "{}", net.spec.name);
    for _ in 0..pairs.len() {
        pairs.push((rng.below(n), rng.below(n)));
    }
    pairs
}

fn snapshots(net: PolarStarNetwork, rng: &mut Rng) -> Snapshots {
    let g = net.graph().clone();
    let dead = g.n() as u32 / 2;
    let cables = FaultSet::random_links(&g, 0.02, 5);
    let one_way = FaultSet::from_directed_links(
        cables
            .failed_links()
            .iter()
            .map(|&(u, v)| (u.max(v), u.min(v))),
    );
    let faults = FaultSet::random_links(&g, 0.05, 9)
        .union(&one_way)
        .union(&FaultSet::from_routers([dead]));
    let pairs = mixed_pairs(&net, &faults, dead, rng);
    let mut queries = |pairs: &[(u32, u32)]| {
        let mut qs: Vec<Query> = pairs
            .iter()
            .enumerate()
            .map(|(i, &(src, dst))| Query {
                src,
                dst,
                k: KS[i % KS.len()],
            })
            .collect();
        for i in (1..qs.len()).rev() {
            qs.swap(i, rng.below(i as u32 + 1) as usize);
        }
        qs
    };
    let masked = queries(&pairs);
    let pristine = queries(&pairs);
    let analytic = Oracle::new_analytic(net.clone());
    let table = Oracle::new(Arc::new(net.spec));
    Snapshots {
        analytic: [analytic.remask(&faults, 1), analytic],
        table: [table.remask(&faults, 1), table],
        queries: [masked, pristine],
    }
}

#[test]
fn interleaved_queries_on_one_thread_answer_like_the_remasked_table() {
    let scan_side = PolarStarNetwork::build(best_config(15).unwrap(), 1).unwrap();
    let kernel_side = PolarStarConfig {
        q: 2,
        supernode: SupernodeKind::Paley { degree: 26 },
    };
    let kernel_side = PolarStarNetwork::build(kernel_side, 1).unwrap();
    assert!(scan_side.graph().max_degree() <= 15);
    assert!(kernel_side.graph().min_degree() >= 28);
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let nets = [
        snapshots(scan_side, &mut rng),
        snapshots(kernel_side, &mut rng),
    ];

    // Round-robin over (network, mask): consecutive queries never share
    // a snapshot, and each snapshot's own queries are shuffled.
    let longest = nets
        .iter()
        .flat_map(|s| s.queries.iter().map(Vec::len))
        .max()
        .unwrap();
    let mut answered = 0;
    for i in 0..longest {
        for s in &nets {
            for m in 0..2 {
                let Some(&q) = s.queries[m].get(i) else {
                    continue;
                };
                let got = s.analytic[m].answer(q);
                assert_eq!(got, s.table[m].answer(q), "{q:?} under mask {m}");
                answered += 1;
            }
        }
    }
    assert!(answered > 400, "{answered} queries");

    for s in &nets {
        for m in 0..2 {
            let batch = QueryBatch::new(s.queries[m].clone());
            let seq = s.analytic[m].answer_batch(&batch);
            assert_eq!(seq, s.analytic[m].answer_batch_sharded(&batch), "mask {m}");
        }
    }
}
