//! Figure 9: latency vs offered load for the Table 3 topologies under
//! uniform, random-permutation, bit-reverse and bit-shuffle traffic with
//! MIN and UGAL routing.
//!
//! CSV `pattern,topology,routing,offered,avg_latency,accepted,stable`.
//! Load points ascend and a series stops after its first unstable point
//! (the paper plots up to the last stable rate). `--quick` shrinks the
//! simulation for smoke tests; `--only <key>` restricts topologies;
//! `--engine-threads <n>` shards each run across n threads (results are
//! bit-identical to sequential). `--metrics-dir <path>` additionally
//! runs one monitored uniform/MIN point per topology and writes a
//! `RunManifest` JSON per key.

use bench::sweep_driver::{run_sweep_csv, series_grid, write_manifests, MonitoredPoint};
use bench::{Cli, TABLE3_KEYS};
use polarstar_netsim::engine::SimConfig;
use polarstar_netsim::routing::RoutingKind;
use polarstar_netsim::traffic::Pattern;

fn main() {
    let cli = Cli::from_env(&["--quick", "--only", "--engine-threads", "--metrics-dir"]);
    let quick = cli.has("--quick");
    let keys = cli.selected_keys(&TABLE3_KEYS, &TABLE3_KEYS);
    let cfg = SimConfig {
        warmup_cycles: if quick { 300 } else { 1_500 },
        measure_cycles: if quick { 600 } else { 4_000 },
        drain_cycles: if quick { 3_000 } else { 20_000 },
        seed: 2024,
        threads: cli.engine_threads(),
        ..SimConfig::default()
    };
    let loads: Vec<f64> = if quick {
        vec![0.1, 0.3, 0.5, 0.7]
    } else {
        vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
    };
    let patterns = [
        Pattern::Uniform,
        Pattern::Permutation,
        Pattern::BitReverse,
        Pattern::BitShuffle,
    ];
    let routings = [RoutingKind::MinMulti, RoutingKind::ugal4()];

    // One series per (topology, pattern, routing); parallel across series,
    // sequential in load with early stop at instability.
    let series = series_grid(&keys, &patterns, &routings);
    run_sweep_csv(&series, &loads, &cfg);

    if let Some(dir) = cli.metrics_dir() {
        // One monitored uniform/MIN point per topology at moderate load:
        // enough to populate link/VC/stall/latency metrics without a
        // second full sweep.
        let point = MonitoredPoint {
            kind: RoutingKind::MinMulti,
            pattern: Pattern::Uniform,
            load: 0.3,
            routing_label: "MIN",
        };
        write_manifests(&keys, &point, &cfg, if quick { 64 } else { 256 }, dir);
    }
}
