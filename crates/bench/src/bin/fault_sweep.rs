//! Fault sweep: how saturation throughput and Allreduce completion
//! degrade as the failed-link fraction grows (the resilience story of
//! §11 / Figure 14, but measured in the cycle engine and motif model
//! instead of analytically).
//!
//! For each topology × fraction the sweep fails a deterministic random
//! link set (seeded per topology, nested across fractions — the same
//! sampling discipline as `analysis::faults::fault_trajectory`), builds
//! the degraded route table, binary-searches the uniform/MIN saturation
//! load, runs one monitored mid-load point, and times a 64 KB
//! recursive-doubling allreduce over all endpoints.
//!
//! CSV `topology,failed_fraction,failed_links,saturation_load,unroutable,allreduce_us`
//! (`allreduce_us` is `NaN` when the surviving network severs a rank
//! pair). `--quick` shrinks cycles and fractions for smoke tests;
//! `--only <key>` restricts topologies; `--engine-threads <n>` shards
//! each run; `--metrics-dir <path>` writes one `RunManifest` JSON per
//! (topology, fraction) point.

use bench::manifest::file_stem;
use bench::{table3_network, Cli, RunManifest, TABLE3_KEYS};
use polarstar_motifs::collectives::{allreduce, AllreduceAlgo};
use polarstar_motifs::netmodel::{ns, MotifConfig, MotifError, NetModel, RoutingMode};
use polarstar_netsim::engine::SimConfig;
use polarstar_netsim::monitor::MetricsMonitor;
use polarstar_netsim::routing::{RouteTable, RoutingKind};
use polarstar_netsim::stats::saturation_search;
use polarstar_netsim::{Pattern, Simulation};
use polarstar_topo::FaultSet;
use rayon::prelude::*;

/// Default subset: PolarStar, SlimFly-MMS (LPS realization) and
/// Dragonfly — the low-diameter fabrics whose fault behavior the paper
/// contrasts.
const DEFAULT_KEYS: [&str; 3] = ["PS-IQ", "SF", "DF"];

/// Per-topology fault seed; fixed so fault sets nest across fractions.
const FAULT_SEED: u64 = 0xFA17;

fn main() {
    let cli = Cli::from_env(&["--quick", "--only", "--engine-threads", "--metrics-dir"]);
    let quick = cli.has("--quick");
    let keys = cli.selected_keys(&TABLE3_KEYS, &DEFAULT_KEYS);
    let fractions: Vec<f64> = if quick {
        vec![0.0, 0.05]
    } else {
        vec![0.0, 0.01, 0.02, 0.05, 0.10, 0.15]
    };
    let cfg = SimConfig {
        warmup_cycles: if quick { 300 } else { 1_500 },
        measure_cycles: if quick { 600 } else { 4_000 },
        drain_cycles: if quick { 3_000 } else { 20_000 },
        seed: 2024,
        threads: cli.engine_threads(),
        ..SimConfig::default()
    };
    let tol = if quick { 0.1 } else { 0.02 };
    let iters = if quick { 1 } else { 2 };

    // Resolve every topology once up front so a misconfigured key is a
    // clean diagnostic, not a worker panic mid-sweep.
    let mut nets = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    for &key in &keys {
        match table3_network(key) {
            Ok(net) => nets.push((key, net)),
            Err(e) => errors.push(format!("{key}: {e}")),
        }
    }
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("error: {e}");
        }
        std::process::exit(1);
    }

    println!("topology,failed_fraction,failed_links,saturation_load,unroutable,allreduce_us");
    let jobs: Vec<(&str, &_, f64)> = nets
        .iter()
        .flat_map(|(k, net)| fractions.iter().map(move |&f| (*k, net, f)))
        .collect();
    let rows: Vec<(String, RunManifest)> = jobs
        .par_iter()
        .map(|&(key, pristine, fraction)| {
            let faults = FaultSet::random_links(&pristine.graph, fraction, FAULT_SEED);
            let failed = faults.failed_edge_count(&pristine.graph);
            let spec = pristine.clone().with_faults(faults);
            let table = RouteTable::for_spec(&spec);
            let sim = Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform);
            let sat = saturation_search(&sim, &cfg, tol);
            // One monitored point at half the surviving saturation load:
            // stable enough to drain, loaded enough to exercise the
            // degraded paths and count unroutable drops.
            let load = (sat * 0.5).max(0.05);
            let mut mon = MetricsMonitor::new(if quick { 64 } else { 256 });
            let r = sim.run_monitored(load, &cfg, &mut mon);
            let (allreduce_us, hotlist) = {
                let mut model = NetModel::new(spec.clone(), MotifConfig::default());
                match allreduce(
                    &mut model,
                    AllreduceAlgo::RecursiveDoubling,
                    64 * 1024,
                    iters,
                    RoutingMode::Min,
                ) {
                    Ok(t_ns) => (t_ns / 1000.0, model.link_hotlist(ns(t_ns), 5)),
                    // A severed rank pair has no finite completion time;
                    // the error names the pair and the motif it broke.
                    Err(e @ MotifError::Disconnected { .. }) => {
                        eprintln!("fault_sweep: {key}@{fraction}: {e}");
                        (f64::NAN, Vec::new())
                    }
                    // A Table 3 network that cannot host an allreduce is
                    // a harness bug, not a measurement.
                    Err(e @ MotifError::InvalidConfig { .. }) => panic!("{key}: {e}"),
                }
            };
            let row = format!(
                "{key},{fraction},{failed},{sat:.3},{},{allreduce_us:.1}",
                r.unroutable
            );
            let mut m = RunManifest::for_network(key, &spec).with_sim(
                "MIN",
                "uniform",
                load,
                &cfg,
                mon.report(),
            );
            m.push_extra("failed_fraction", fraction);
            m.push_extra("failed_links", failed as f64);
            m.push_extra("saturation_load", sat);
            m.push_extra("unroutable", r.unroutable as f64);
            m.push_extra("allreduce_us", allreduce_us);
            // The allreduce's hottest surviving links, utilization at
            // the completion-time horizon: which cables the collective
            // leaned on as the fault fraction grew.
            for (i, h) in hotlist.iter().enumerate() {
                m.push_extra(format!("hot{i}_{}to{}_util", h.src, h.dst), h.utilization);
                m.push_extra(
                    format!("hot{i}_{}to{}_msgs", h.src, h.dst),
                    h.messages as f64,
                );
            }
            (row, m)
        })
        .collect();
    for (row, _) in &rows {
        println!("{row}");
    }
    if let Some(dir) = cli.metrics_dir() {
        for ((key, _, fraction), (_, m)) in jobs.iter().zip(&rows) {
            let stem = file_stem(&format!("fault_{key}_{fraction}"));
            m.write(dir, &stem).expect("write manifest");
        }
    }
}
