//! Fault recovery transient: inject a failure burst mid-measurement on
//! the live engine, let the links return, and measure how long the
//! network takes to re-converge to its baseline latency.
//!
//! Where `fault_sweep` degrades the topology *before* the run, this
//! binary exercises the live-fault subsystem: a [`FaultSchedule`] fails
//! a seeded random link set at `fail_cycle` (a quarter into the
//! measurement window) and recovers it at `recover_cycle` (halfway in).
//! One [`MetricsMonitor`] buckets deliveries by cycle
//! ([`MetricsMonitor::delivery_series`]) and fills the manifest; the
//! recovery time is the first post-recovery bucket whose mean latency
//! re-enters 1.2× the pre-failure baseline.
//!
//! CSV `topology,load,burst_fraction,fail_cycle,recover_cycle,baseline_latency,peak_latency,faulted_in_flight,rerouted,recovery_cycles,allreduce_pristine_us,allreduce_burst_us,edst_trees,edst_pristine_us,edst_burst_us`
//! (`recovery_cycles` is empty when the run never settles;
//! `allreduce_*` are the motif-layer allreduce on the pristine network
//! and on one with the burst's link set statically failed; `edst_*` are
//! the striped multi-tree broadcast over the network's edge-disjoint
//! spanning-tree packing, pristine vs. re-striping through the same
//! burst). `--quick`
//! shrinks cycles for smoke tests; `--only <key>` restricts topologies;
//! `--engine-threads <n>` shards each run; `--metrics-dir <path>` writes
//! one `RunManifest` JSON per topology.

use bench::manifest::file_stem;
use bench::{table3_network, Cli, RunManifest, TABLE3_KEYS};
use polarstar_motifs::collectives::{allreduce, AllreduceAlgo};
use polarstar_motifs::multitree::{striped_broadcast, FaultEpochs, RepairPolicy};
use polarstar_motifs::netmodel::{MotifConfig, MotifError, NetModel, RoutingMode};
use polarstar_netsim::routing::{RouteTable, RoutingKind};
use polarstar_netsim::stats::recovery_analysis;
use polarstar_netsim::{MetricsMonitor, Pattern, SimConfig, Simulation};
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::FaultSchedule;
use polarstar_topo::FaultSet;
use rayon::prelude::*;

/// Same default subset as `fault_sweep`: the low-diameter fabrics whose
/// fault behavior the paper contrasts.
const DEFAULT_KEYS: [&str; 3] = ["PS-IQ", "SF", "DF"];

/// Burst sampling seed, shared with `fault_sweep` so the failed link
/// sets nest across the two experiments.
const FAULT_SEED: u64 = 0xFA17;

fn main() {
    let cli = Cli::from_env(&["--quick", "--only", "--engine-threads", "--metrics-dir"]);
    let quick = cli.has("--quick");
    let keys = cli.selected_keys(&TABLE3_KEYS, &DEFAULT_KEYS);
    let cfg = SimConfig {
        warmup_cycles: if quick { 300 } else { 1_500 },
        measure_cycles: if quick { 1_200 } else { 8_000 },
        drain_cycles: if quick { 4_000 } else { 30_000 },
        seed: 2024,
        threads: cli.engine_threads(),
        ..SimConfig::default()
    };
    let fail_cycle = cfg.warmup_cycles + cfg.measure_cycles / 4;
    let recover_cycle = cfg.warmup_cycles + cfg.measure_cycles / 2;
    let burst_fraction = 0.05;
    let bucket = if quick { 100 } else { 250 };
    let load = 0.25;

    println!(
        "topology,load,burst_fraction,fail_cycle,recover_cycle,\
         baseline_latency,peak_latency,faulted_in_flight,rerouted,recovery_cycles,\
         allreduce_pristine_us,allreduce_burst_us,edst_trees,edst_pristine_us,edst_burst_us"
    );
    let rows: Vec<Result<(String, RunManifest), String>> = keys
        .par_iter()
        .map(|&key| {
            let spec = table3_network(key).map_err(|e| format!("{key}: {e}"))?;
            let schedule = FaultSchedule::random_burst(
                &spec.graph,
                burst_fraction,
                FAULT_SEED,
                fail_cycle,
                Some(recover_cycle),
            );
            let table = RouteTable::for_spec(&spec);
            let run_cfg = SimConfig {
                fault_schedule: Some(schedule),
                ..cfg.clone()
            };
            let mut mon = MetricsMonitor::new(bucket);
            let r = Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform)
                .run_monitored(load, &run_cfg, &mut mon);
            let a = recovery_analysis(&mon.delivery_series(), fail_cycle, recover_cycle, 1.2);
            let recovery = a.recovery_cycles.map(|c| c.to_string()).unwrap_or_default();
            // Motif-layer view of the same burst: a 64 KB recursive-
            // doubling allreduce on the pristine network vs. one with
            // the burst's link set statically failed (same seed and
            // fraction, so the sets match the scheduled burst).
            let motif_point = |s: &NetworkSpec| -> Result<f64, String> {
                let mut model = NetModel::new(s.clone(), MotifConfig::default());
                match allreduce(
                    &mut model,
                    AllreduceAlgo::RecursiveDoubling,
                    64 * 1024,
                    1,
                    RoutingMode::Min,
                ) {
                    Ok(t_ns) => Ok(t_ns / 1000.0),
                    // The burst may sever a rank pair outright; the
                    // error names the pair and the motif it broke.
                    Err(e @ MotifError::Disconnected { .. }) => {
                        eprintln!("fault_recovery: {key}: {e}");
                        Ok(f64::NAN)
                    }
                    Err(e @ MotifError::InvalidConfig { .. }) => Err(format!("{key}: {e}")),
                }
            };
            let allreduce_pristine_us = motif_point(&spec)?;
            let burst_links = FaultSet::random_links(&spec.graph, burst_fraction, FAULT_SEED);
            let burst_spec = spec.clone().with_faults(burst_links.clone());
            let allreduce_burst_us = motif_point(&burst_spec)?;
            // Multi-tree view of the same burst: an 8 MB broadcast
            // striped over the network's EDST packing, pristine vs.
            // repairing/re-striping around the burst mask from time
            // zero (a 5% burst clips every tree, so survival hinges on
            // edge replacement, not just re-striping).
            let trees = bench::table3_edst(key, &spec);
            let edst_point = |epochs: &FaultEpochs| -> f64 {
                let mut model = NetModel::new(spec.clone(), MotifConfig::default());
                match striped_broadcast(&mut model, &trees, 8 << 20, epochs, RepairPolicy::Replace)
                {
                    Ok(out) => out.completion_ns / 1000.0,
                    Err(e) => {
                        eprintln!("fault_recovery: {key}: striped broadcast: {e}");
                        f64::NAN
                    }
                }
            };
            let edst_pristine_us = edst_point(&FaultEpochs::pristine());
            let edst_burst_us = edst_point(&FaultEpochs::at_time_zero(burst_links));
            let row = format!(
                "{key},{load},{burst_fraction},{fail_cycle},{recover_cycle},\
                 {:.2},{:.2},{},{},{recovery},{allreduce_pristine_us:.1},{allreduce_burst_us:.1},\
                 {},{edst_pristine_us:.1},{edst_burst_us:.1}",
                a.baseline_latency,
                a.peak_latency,
                r.faulted_in_flight,
                r.rerouted,
                trees.len()
            );
            let mut m = RunManifest::for_network(key, &spec).with_sim(
                "MIN",
                "uniform",
                load,
                &run_cfg,
                mon.report(),
            );
            m.push_extra("burst_fraction", burst_fraction);
            m.push_extra("fail_cycle", fail_cycle as f64);
            m.push_extra("recover_cycle", recover_cycle as f64);
            m.push_extra("baseline_latency", a.baseline_latency);
            m.push_extra("peak_latency", a.peak_latency);
            m.push_extra("faulted_in_flight", r.faulted_in_flight as f64);
            m.push_extra("rerouted", r.rerouted as f64);
            m.push_extra(
                "recovery_cycles",
                a.recovery_cycles.map(|c| c as f64).unwrap_or(f64::NAN),
            );
            m.push_extra("allreduce_pristine_us", allreduce_pristine_us);
            m.push_extra("allreduce_burst_us", allreduce_burst_us);
            m.push_extra("edst_trees", trees.len() as f64);
            m.push_extra("edst_pristine_us", edst_pristine_us);
            m.push_extra("edst_burst_us", edst_burst_us);
            Ok((row, m))
        })
        .collect();
    let mut failed = false;
    for (key, res) in keys.iter().zip(&rows) {
        match res {
            Ok((row, m)) => {
                println!("{row}");
                if let Some(dir) = cli.metrics_dir() {
                    let stem = file_stem(&format!("fault_recovery_{key}"));
                    if let Err(e) = m.write(dir, &stem) {
                        eprintln!("fault_recovery: writing manifest for {key}: {e}");
                        failed = true;
                    }
                }
            }
            Err(e) => {
                eprintln!("fault_recovery: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
