//! `routed_table_churn` and `routed_analytic_churn`: the route service
//! on PS-IQ across one link-fault schedule, once per backend.
//!
//! One client, closed loop: per fault epoch it installs the epoch
//! (`EpochSwapper::prepare` + `install`, which is all `advance` does),
//! then sends the same stream of 512-query batches through
//! `load().answer_batch`.
//!
//! On the CSR table reads are cheap and an install re-runs one BFS per
//! destination, so install latency dominates. On the table-free backend
//! an install swaps a mask in microseconds and reads are expensive —
//! most of all on faulted epochs, where 5 of every 6 read-seconds go. A
//! template or symmetry-class cache must speed reads on the analytic
//! workload without raising its install latency; the table workload is
//! its no-change control.

use super::{build_psiq, RouterCounts};
use crate::harness::{
    median, named, percentile, set_rayon_width, Checks, Values, Workload, RAYON_WIDTH,
};
use crate::trace::Tracer;
use polarstar::network::PolarStarNetwork;
use polarstar_routed::{EpochSwapper, Oracle, Query, QueryBatch, RouteAnswer};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::PathOracle;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Link-fault fraction of each epoch; the last one recovers everything.
const EPOCH_LINK_FRACTIONS: [f64; 5] = [0.0, 0.01, 0.025, 0.05, 0.0];
/// Index of the most degraded epoch.
const WORST_EPOCH: usize = 3;
const BATCH_QUERIES: usize = 512;
const PATHS_PER_QUERY: u32 = 4;
/// Batches per epoch, sized so both bodies take one to two seconds.
const TABLE_BATCHES: usize = 256;
const ANALYTIC_BATCHES: usize = 16;
/// Leading batches whose queries make the cross-backend sample (4 096
/// queries) and whose epoch-0 answers the recovery epoch must repeat.
const SAMPLE_BATCHES: usize = 8;

pub type RoutedTableChurn = RoutedChurn<false>;
pub type RoutedAnalyticChurn = RoutedChurn<true>;

pub struct RoutedChurn<const ANALYTIC: bool> {
    net: Arc<PolarStarNetwork>,
    swapper: EpochSwapper,
    /// Cumulative fault set of each epoch.
    epochs: Vec<FaultSet>,
    batches: Vec<QueryBatch>,
    /// Epoch ids handed to `prepare`, increasing across bodies.
    next_epoch_id: u64,
}

/// What the client saw, folded as the answers stream past.
#[derive(Default, PartialEq, Debug)]
pub struct Digest {
    queries: u64,
    unreachable: u64,
    distance_sum: u64,
    path_hops: u64,
    alternatives: u64,
    swaps: u64,
    routes_computed: u64,
    fallbacks: u64,
}

impl Digest {
    fn absorb(&mut self, answers: &[RouteAnswer]) {
        for a in answers {
            self.queries += 1;
            match a.distance {
                None => self.unreachable += 1,
                Some(d) => self.distance_sum += u64::from(d),
            }
            self.path_hops += a.path.len() as u64;
            self.alternatives += a.alternatives.len() as u64;
        }
    }
}

fn build_oracle(net: &Arc<PolarStarNetwork>, analytic: bool) -> Oracle {
    if analytic {
        Oracle::new_analytic(net.clone())
    } else {
        Oracle::new(Arc::new(net.spec.clone()))
    }
}

impl<const ANALYTIC: bool> Workload for RoutedChurn<ANALYTIC> {
    type Out = Digest;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let net = Arc::new(tr.span("topo.network_build", build_psiq));
        let oracle = tr.span("routed.oracle_build", || build_oracle(&net, ANALYTIC));
        let routers = net.spec.routers() as u32;
        let epochs = EPOCH_LINK_FRACTIONS
            .iter()
            .map(|&f| FaultSet::random_links(&net.spec.graph, f, seed))
            .collect();
        let count = if ANALYTIC {
            ANALYTIC_BATCHES
        } else {
            TABLE_BATCHES
        };
        let batches = (0..count as u64)
            .map(|b| {
                let batch_seed = seed.wrapping_mul(0x9e37_79b9).wrapping_add(b);
                QueryBatch::random(BATCH_QUERIES, routers, PATHS_PER_QUERY, batch_seed)
            })
            .collect();
        RoutedChurn {
            net,
            swapper: EpochSwapper::new(oracle),
            epochs,
            batches,
            next_epoch_id: 1,
        }
    }

    fn body(&mut self, tr: &mut Tracer) -> Digest {
        let mut digest = Digest::default();
        let swaps_before = self.swapper.swap_count();
        let counts_before = RouterCounts::read(self.swapper.base().analytic());
        for faults in &self.epochs {
            let advance = tr.enter("routed.advance");
            let prepared = tr.span("routed.prepare", || {
                self.swapper.prepare(faults, self.next_epoch_id)
            });
            tr.span("routed.install", || self.swapper.install(prepared));
            tr.exit(advance);
            self.next_epoch_id += 1;

            let snapshot = self.swapper.load();
            let span = if faults.is_empty() {
                "routed.batch_pristine"
            } else {
                "routed.batch_faulted"
            };
            for batch in &self.batches {
                let answers = tr.span(span, || snapshot.answer_batch(batch));
                digest.absorb(&answers);
            }
        }
        digest.swaps = self.swapper.swap_count() - swaps_before;
        let counts = counts_before.since(self.swapper.base().analytic());
        digest.routes_computed = counts.routes;
        digest.fallbacks = counts.fallbacks;
        digest
    }

    /// Queries answered.
    fn work(&self, out: &Digest) -> u64 {
        out.queries
    }

    fn exact(&self, out: &Digest) -> Vec<(String, f64)> {
        let base = self.swapper.base();
        let bytes = base.memory_bytes() as f64;
        named(&[
            ("routed.queries", out.queries as f64),
            ("routed.unreachable", out.unreachable as f64),
            ("routed.swaps", out.swaps as f64),
            ("routed.oracle_bytes", bytes),
            (
                if ANALYTIC {
                    "analytic.bytes"
                } else {
                    "route_table.bytes"
                },
                bytes,
            ),
            ("analytic.routes_computed", out.routes_computed as f64),
            ("analytic.fallbacks", out.fallbacks as f64),
            ("answers.distance_sum", out.distance_sum as f64),
            ("answers.path_hops", out.path_hops as f64),
            ("answers.alternatives", out.alternatives as f64),
        ])
    }

    fn verify(&mut self, out: &Digest, checks: &mut Checks) {
        let spec = &self.net.spec;
        // The other backend, for the cross-backend distance sample.
        let other = build_oracle(&self.net, !ANALYTIC);
        let mut replay = Digest::default();
        let mut epoch0: Vec<Vec<RouteAnswer>> = Vec::new();
        let last_epoch = self.epochs.len() - 1;
        for (e, faults) in self.epochs.iter().enumerate() {
            let snapshot = self.swapper.prepare(faults, e as u64);
            let pristine = faults.is_empty();
            for (b, batch) in self.batches.iter().enumerate() {
                let answers = snapshot.answer_batch(batch);
                replay.absorb(&answers);
                for (q, a) in batch.queries.iter().zip(&answers) {
                    checks.check(answer_is_sound(spec, faults, q, a, pristine), || {
                        format!("epoch {e}: unsound answer {a:?}")
                    });
                }
                if b < SAMPLE_BATCHES {
                    if e == 0 {
                        epoch0.push(answers);
                    } else if e == last_epoch {
                        let same = epoch0[b].iter().zip(&answers).all(|(x, y)| {
                            (x.distance, x.next_hop, &x.path, &x.alternatives)
                                == (y.distance, y.next_hop, &y.path, &y.alternatives)
                        });
                        checks.check(same, || {
                            format!("batch {b}: the recovery epoch does not repeat epoch 0")
                        });
                    }
                }
            }
            if e == 0 || e == WORST_EPOCH {
                let other_snapshot = other.remask(faults, e as u64);
                for q in self.batches[..SAMPLE_BATCHES]
                    .iter()
                    .flat_map(|b| &b.queries)
                {
                    let mine = PathOracle::distance(&snapshot, q.src, q.dst);
                    let theirs = PathOracle::distance(&other_snapshot, q.src, q.dst);
                    checks.check(mine == theirs, || {
                        format!(
                            "epoch {e}: {}→{} is {mine:?} here, {theirs:?} on the other backend",
                            q.src, q.dst
                        )
                    });
                }
            }
        }
        // The timed bodies ran unchecked; they answered the same stream,
        // so they must fold to the same digest as the checked replay.
        let same_answers = (
            replay.queries,
            replay.unreachable,
            replay.distance_sum,
            replay.path_hops,
            replay.alternatives,
        ) == (
            out.queries,
            out.unreachable,
            out.distance_sum,
            out.path_hops,
            out.alternatives,
        );
        checks.check(same_answers, || {
            format!("timed body {out:?} differs from the checked replay {replay:?}")
        });
        checks.check(out.swaps == self.epochs.len() as u64, || {
            format!("{} installs for {} epochs", out.swaps, self.epochs.len())
        });
    }

    fn probe(&mut self, _out: &Digest, tr: &Tracer, values: &mut Values) {
        let us = |ns: Vec<f64>| -> Vec<f64> { ns.iter().map(|x| x / 1e3).collect() };
        let prepare_us = median(&us(tr.durations_ns("routed.prepare")));
        values.set("routed.prepare_us", prepare_us);
        values.set(
            "routed.install_us",
            median(&us(tr.durations_ns("routed.install"))),
        );
        values.set(
            "routed.install_p50_us",
            median(&us(tr.durations_ns("routed.advance"))),
        );
        if ANALYTIC {
            values.set("analytic.remask_us", prepare_us);
        } else {
            values.set("route_table.remask_ms", prepare_us / 1e3);
        }

        let pristine = us(tr.durations_ns("routed.batch_pristine"));
        let faulted = us(tr.durations_ns("routed.batch_faulted"));
        let all: Vec<f64> = pristine.iter().chain(&faulted).copied().collect();
        values.set("routed.batch_p50_us", median(&all));
        values.set("routed.batch_p95_us", percentile(&all, 0.95));
        values.set("routed.batch_us_pristine", median(&pristine));
        values.set("routed.batch_us_faulted", median(&faulted));
        values.set(
            "routed.faulted_slowdown",
            median(&faulted) / median(&pristine),
        );

        // Single-layer probes outside the body.
        let queries: Vec<Query> = self
            .batches
            .iter()
            .flat_map(|b| &b.queries)
            .copied()
            .collect();
        let storm_ns = |oracle: &Oracle, count: usize| {
            let t0 = Instant::now();
            for q in queries.iter().cycle().take(count) {
                black_box(oracle.next_hop(q.src, q.dst).ok());
            }
            t0.elapsed().as_nanos() as f64 / count as f64
        };
        let base = self.swapper.base();
        let worst = self.swapper.prepare(&self.epochs[WORST_EPOCH], 0);
        if ANALYTIC {
            values.set("analytic.next_hop_ns", storm_ns(base, 200_000));
            // A faulted analytic query costs ~10× a pristine one.
            values.set("analytic.next_hop_faulted_ns", storm_ns(&worst, 20_000));
        } else {
            values.set("route_table.next_hop_ns", storm_ns(base, 200_000));
        }

        // One 4 096-query batch on the most degraded epoch, sequential
        // against rayon-sharded over two workers.
        let big = QueryBatch::new(queries[..SAMPLE_BATCHES * BATCH_QUERIES].to_vec());
        let time_us = |f: &dyn Fn() -> Vec<RouteAnswer>| {
            let samples: Vec<f64> = (0..3)
                .map(|_| {
                    let t0 = Instant::now();
                    black_box(f());
                    t0.elapsed().as_secs_f64() * 1e6
                })
                .collect();
            median(&samples)
        };
        let sequential_us = time_us(&|| worst.answer_batch(&big));
        set_rayon_width(2);
        let sharded_us = time_us(&|| worst.answer_batch_sharded(&big));
        set_rayon_width(RAYON_WIDTH);
        values.set("routed.sharded_batch_us", sharded_us);
        values.set("routed.sharded_speedup", sequential_us / sharded_us);
    }
}

/// Whether `path` is a chain of existing, non-failed links from `src`
/// to `dst`.
fn path_is_live(
    spec: &polarstar_topo::NetworkSpec,
    faults: &FaultSet,
    src: u32,
    dst: u32,
    path: &[u32],
) -> bool {
    path.first() == Some(&src)
        && path.last() == Some(&dst)
        && path
            .windows(2)
            .all(|h| spec.graph.has_edge(h[0], h[1]) && !faults.link_failed(h[0], h[1]))
}

/// Every returned path is a chain of live links from `src` to `dst` of
/// the stated length, the first alternative is the path, and a pristine
/// epoch keeps the paper's diameter-3 promise.
fn answer_is_sound(
    spec: &polarstar_topo::NetworkSpec,
    faults: &FaultSet,
    q: &Query,
    a: &RouteAnswer,
    pristine: bool,
) -> bool {
    let Some(distance) = a.distance else {
        // Unreachable: nothing to walk, but a pristine PolarStar is
        // connected.
        return !pristine && a.path.is_empty() && a.alternatives.is_empty();
    };
    (a.src, a.dst) == (q.src, q.dst)
        && (!pristine || distance <= 3)
        && a.alternatives.first() == Some(&a.path)
        && a.alternatives.len() <= q.k as usize
        && a.alternatives
            .iter()
            .all(|p| p.len() as u32 == distance + 1 && path_is_live(spec, faults, q.src, q.dst, p))
}
