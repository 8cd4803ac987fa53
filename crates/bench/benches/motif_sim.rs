//! Message-level motif simulator cost: allreduce and sweep3d over a
//! mid-size PolarStar and a 64-rank reference network.
//!
//! `CRITERION_JSON=<absolute path> cargo bench -p bench --bench
//! motif_sim` appends one JSON line per bench (CI's `bench-smoke` job
//! writes under `target/`); commit-tagged numbers for this layer are
//! `benchmark/`'s `motif_psiq` workload.

use criterion::{criterion_group, criterion_main, Criterion};
use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_graph::random::random_regular;
use polarstar_motifs::collectives::{allreduce, sweep3d, AllreduceAlgo};
use polarstar_motifs::netmodel::{MotifConfig, NetModel, RoutingMode};
use polarstar_topo::network::NetworkSpec;

/// 64 ranks: 32 routers of degree 6, two endpoints each. Power-of-two
/// rank count so recursive doubling runs its pure exchange schedule.
fn ranks64() -> NetworkSpec {
    let g = random_regular(32, 6, 7).unwrap();
    NetworkSpec::uniform("rr32x2", g, 2)
}

fn bench_allreduce(c: &mut Criterion) {
    let spec = PolarStarNetwork::build(best_config(12).unwrap(), 2)
        .unwrap()
        .spec;
    let spec64 = ranks64();
    let mut g = c.benchmark_group("motif_allreduce");
    g.sample_size(10);
    for (label, algo) in [
        ("recursive_doubling", AllreduceAlgo::RecursiveDoubling),
        ("ring", AllreduceAlgo::Ring),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut m = NetModel::new(spec.clone(), MotifConfig::default());
                allreduce(&mut m, algo, 64 * 1024, 1, RoutingMode::Min)
            })
        });
    }
    // 64-rank message-size sweep: the fig11-style inner loop (several
    // sizes against one model, reset between points) that the flattened
    // hot path must speed up ≥2×.
    for (label, algo) in [
        ("rd_64rank_sweep", AllreduceAlgo::RecursiveDoubling),
        ("ring_64rank_sweep", AllreduceAlgo::Ring),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut m = NetModel::new(spec64.clone(), MotifConfig::default());
                let mut acc = 0.0;
                for bytes in [1 << 10, 1 << 14, 1 << 18] {
                    acc += allreduce(&mut m, algo, bytes, 1, RoutingMode::Min).unwrap();
                    m.reset();
                }
                acc
            })
        });
    }
    g.finish();
}

fn bench_sweep3d(c: &mut Criterion) {
    let spec64 = ranks64();
    let mut g = c.benchmark_group("motif_sweep3d");
    g.sample_size(10);
    g.bench_function("grid8x8", |b| {
        b.iter(|| {
            let mut m = NetModel::new(spec64.clone(), MotifConfig::default());
            sweep3d(&mut m, 8, 8, 4 * 1024, 200.0, 2, RoutingMode::Min)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_allreduce, bench_sweep3d);
criterion_main!(benches);
