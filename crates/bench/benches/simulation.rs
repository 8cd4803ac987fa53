//! Cycle-engine throughput: simulated cycles for a small PolarStar under
//! uniform traffic at moderate load, sequential and sharded.
//!
//! The `min`/`ugal` benches keep their historical names (sequential
//! engine), the ones EXPERIMENTS.md's recorded trajectory uses; the
//! `*_t2`/`*_t4` variants run the identical simulation through the
//! sharded engine at 2 and 4 worker threads.

use criterion::{criterion_group, criterion_main, Criterion};
use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::engine::{simulate, SimConfig};
use polarstar_netsim::routing::{RouteTable, RoutingKind};
use polarstar_netsim::traffic::Pattern;

fn bench_engine(c: &mut Criterion) {
    let net = PolarStarNetwork::build(best_config(9).unwrap(), 2)
        .unwrap()
        .spec;
    let table = RouteTable::builder(&net.graph).build();
    let base = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 500,
        drain_cycles: 2_000,
        seed: 1,
        ..SimConfig::default()
    };
    let mut g = c.benchmark_group("cycle_engine");
    g.sample_size(10);
    for (label, kind, threads) in [
        ("min", RoutingKind::MinMulti, None),
        ("ugal", RoutingKind::ugal4(), None),
        ("min_t2", RoutingKind::MinMulti, Some(2)),
        ("ugal_t2", RoutingKind::ugal4(), Some(2)),
        ("min_t4", RoutingKind::MinMulti, Some(4)),
        ("ugal_t4", RoutingKind::ugal4(), Some(4)),
    ] {
        let cfg = SimConfig {
            threads,
            ..base.clone()
        };
        g.bench_function(label, |b| {
            b.iter(|| simulate(&net, &table, kind, &Pattern::Uniform, 0.3, &cfg))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
