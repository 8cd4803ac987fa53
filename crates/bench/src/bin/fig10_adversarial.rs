//! Figure 10: adversarial supernode-pair traffic on the hierarchical
//! topologies (PS-IQ, PS-Pal, BF, DF, MF) plus FT for reference.
//!
//! CSV as in fig09. DF and MF saturate first (single inter-group link);
//! star products keep multiple links per supernode pair.
//! `--engine-threads <n>` shards each run across n threads (results are
//! bit-identical to sequential). `--metrics-dir <path>` additionally
//! runs one monitored adversarial point per topology and writes a
//! `RunManifest` JSON per key.

use bench::sweep_driver::{run_sweep_csv, series_grid, write_manifests, MonitoredPoint};
use bench::Cli;
use polarstar_netsim::engine::SimConfig;
use polarstar_netsim::routing::RoutingKind;
use polarstar_netsim::traffic::Pattern;

fn main() {
    let cli = Cli::from_env(&["--quick", "--engine-threads", "--metrics-dir"]);
    let quick = cli.has("--quick");
    let keys = ["PS-IQ", "PS-Pal", "BF", "DF", "MF", "FT"];
    let cfg = SimConfig {
        warmup_cycles: if quick { 300 } else { 1_500 },
        measure_cycles: if quick { 600 } else { 4_000 },
        drain_cycles: if quick { 3_000 } else { 20_000 },
        seed: 99,
        threads: cli.engine_threads(),
        ..SimConfig::default()
    };
    let loads: Vec<f64> = if quick {
        vec![0.05, 0.1, 0.2, 0.4]
    } else {
        vec![0.025, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
    };
    let series = series_grid(
        &keys,
        &[Pattern::AdversarialGroup],
        &[RoutingKind::MinMulti, RoutingKind::ugal4()],
    );
    run_sweep_csv(&series, &loads, &cfg);

    if let Some(dir) = cli.metrics_dir() {
        let point = MonitoredPoint {
            kind: RoutingKind::ugal4(),
            pattern: Pattern::AdversarialGroup,
            load: 0.1,
            routing_label: "UGAL",
        };
        write_manifests(&keys, &point, &cfg, if quick { 64 } else { 256 }, dir);
    }
}
