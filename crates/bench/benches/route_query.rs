//! Route-query service microbenchmarks — the `BENCH_routed.json`
//! baseline stream.
//!
//! Groups:
//!
//! * `route_query` — single next-hop and full-answer (k = 4) latency on
//!   the pristine Table-3 PS-IQ oracle, plus a 4096-query sharded batch;
//!   `*_analytic_*` variants run the same storms against the table-free
//!   §9.2 backend (slower per query — each answer probes the distance
//!   kernel per neighbor — in exchange for the O(1) epoch install
//!   below);
//! * `route_epoch` — the cost of one epoch swap: re-masking the PS-IQ
//!   oracle for a 5% link burst and installing it (what the churn thread
//!   pays per epoch while queries keep streaming). The recorded CSR
//!   remask is ~196 ms; `remask_install_analytic_ps_iq` pins the
//!   fault-mask swap that replaces it;
//! * `distance_column_faulted` — one faulted
//!   `AnalyticOracle::distance_column` on PS-scale32 (9 954 routers,
//!   degree 32) at 0.2 %, 5 %, 20 % and 50 % failed links, each next to
//!   the degraded-graph BFS the column repair replaced
//!   (`bfs_<mask>`: one `FaultSet::edge_failed` probe per edge), so
//!   the light-mask gain and the heavy-mask bound are recorded numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_routed::{AnalyticOracle, EpochSwapper, Oracle, Query, QueryBatch};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::oracle::PathOracle;
use std::sync::Arc;

fn ps_iq_oracle() -> Oracle {
    let net = PolarStarNetwork::build(best_config(15).unwrap(), 5).unwrap();
    Oracle::new(Arc::new(net.spec))
}

fn ps_iq_analytic_oracle() -> Oracle {
    let net = PolarStarNetwork::build(best_config(15).unwrap(), 5).unwrap();
    Oracle::new_analytic(net)
}

fn bench_queries(c: &mut Criterion) {
    let oracle = ps_iq_oracle();
    let n = oracle.spec().routers() as u32;
    let mut g = c.benchmark_group("route_query");
    g.sample_size(20);
    g.bench_function("next_hop_ps_iq", |b| {
        let mut s = 0u32;
        let mut t = n / 2;
        b.iter(|| {
            s = (s + 7) % n;
            t = (t + 13) % n;
            criterion::black_box(oracle.next_hop(s, t))
        })
    });
    g.bench_function("answer_k4_ps_iq", |b| {
        let mut s = 0u32;
        let mut t = n / 2;
        b.iter(|| {
            s = (s + 7) % n;
            t = (t + 13) % n;
            criterion::black_box(oracle.answer(Query {
                src: s,
                dst: t,
                k: 4,
            }))
        })
    });
    let batch = QueryBatch::random(4096, n, 4, 0x60E5);
    g.bench_function("batch4096_sharded_ps_iq", |b| {
        b.iter(|| criterion::black_box(oracle.answer_batch_sharded(&batch)))
    });
    g.finish();
}

fn bench_analytic_queries(c: &mut Criterion) {
    let oracle = ps_iq_analytic_oracle();
    let n = oracle.spec().routers() as u32;
    let mut g = c.benchmark_group("route_query");
    g.sample_size(20);
    g.bench_function("next_hop_analytic_ps_iq", |b| {
        let mut s = 0u32;
        let mut t = n / 2;
        b.iter(|| {
            s = (s + 7) % n;
            t = (t + 13) % n;
            criterion::black_box(oracle.next_hop(s, t))
        })
    });
    g.bench_function("answer_k4_analytic_ps_iq", |b| {
        let mut s = 0u32;
        let mut t = n / 2;
        b.iter(|| {
            s = (s + 7) % n;
            t = (t + 13) % n;
            criterion::black_box(oracle.answer(Query {
                src: s,
                dst: t,
                k: 4,
            }))
        })
    });
    g.finish();
}

fn bench_epoch_swap(c: &mut Criterion) {
    let swapper = EpochSwapper::new(ps_iq_oracle());
    let burst = FaultSet::random_links(&swapper.base().spec().graph, 0.05, 0xC4A7);
    let mut g = c.benchmark_group("route_epoch");
    g.sample_size(10);
    g.bench_function("remask_install_ps_iq", |b| {
        let mut epoch = 0;
        b.iter(|| {
            epoch += 1;
            swapper.advance(&burst, epoch);
            criterion::black_box(swapper.swap_count())
        })
    });
    g.finish();
}

fn bench_analytic_epoch_swap(c: &mut Criterion) {
    let swapper = EpochSwapper::new(ps_iq_analytic_oracle());
    let burst = FaultSet::random_links(&swapper.base().spec().graph, 0.05, 0xC4A7);
    let mut g = c.benchmark_group("route_epoch");
    g.sample_size(10);
    g.bench_function("remask_install_analytic_ps_iq", |b| {
        let mut epoch = 0;
        b.iter(|| {
            epoch += 1;
            swapper.advance(&burst, epoch);
            criterion::black_box(swapper.swap_count())
        })
    });
    g.finish();
}

/// The per-destination BFS that served faulted columns before the
/// repair: every edge crossed costs one fault-set probe.
fn bfs_column(oracle: &AnalyticOracle, dst: u32, dist: &mut Vec<u32>, queue: &mut Vec<u32>) {
    let g = oracle.network().graph();
    dist.clear();
    dist.resize(g.n(), u32::MAX);
    queue.clear();
    dist[dst as usize] = 0;
    queue.push(dst);
    let mut head = 0;
    while let Some(&v) = queue.get(head) {
        head += 1;
        for &nb in g.neighbors(v) {
            if dist[nb as usize] == u32::MAX && !oracle.faults().edge_failed(v, nb) {
                dist[nb as usize] = dist[v as usize] + 1;
                queue.push(nb);
            }
        }
    }
}

fn bench_faulted_columns(c: &mut Criterion) {
    let cfg = best_config(32).unwrap();
    let h = 100_000usize.div_ceil(cfg.order()) as u32;
    let pristine = AnalyticOracle::new(PolarStarNetwork::build(cfg, h).unwrap());
    let n = pristine.num_routers() as u32;
    let mut g = c.benchmark_group("distance_column_faulted");
    g.sample_size(200);
    for (label, fraction) in [
        ("0.2pct", 0.002),
        ("5pct", 0.05),
        ("20pct", 0.2),
        ("50pct", 0.5),
    ] {
        let faults = FaultSet::random_links(pristine.network().graph(), fraction, 0xC4A7);
        let oracle = pristine.remask(&faults);
        let (mut col, mut queue) = (Vec::new(), Vec::new());
        // The same destination walk on both sides; the columns agree.
        let mut dst = 0;
        g.bench_function(format!("repair_{label}"), |b| {
            b.iter(|| {
                dst = (dst + 7919) % n;
                oracle.distance_column(dst, &mut col);
                criterion::black_box(col[0])
            })
        });
        let repaired = col.clone();
        dst = 0;
        g.bench_function(format!("bfs_{label}"), |b| {
            b.iter(|| {
                dst = (dst + 7919) % n;
                bfs_column(&oracle, dst, &mut col, &mut queue);
                criterion::black_box(col[0])
            })
        });
        assert_eq!(col, repaired, "{label}: repair and BFS disagree");
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_queries,
    bench_analytic_queries,
    bench_epoch_swap,
    bench_analytic_epoch_swap,
    bench_faulted_columns
);
criterion_main!(benches);
