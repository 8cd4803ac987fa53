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
//!   fault-mask swap that replaces it.

use criterion::{criterion_group, criterion_main, Criterion};
use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_routed::{EpochSwapper, Oracle, Query, QueryBatch};
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

criterion_group!(
    benches,
    bench_queries,
    bench_analytic_queries,
    bench_epoch_swap,
    bench_analytic_epoch_swap
);
criterion_main!(benches);
