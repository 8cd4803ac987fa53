//! Congestion-negotiated routing vs MIN/UGAL on adversarial and
//! permutation traffic (PS-IQ, SF, DF).
//!
//! For each (topology, pattern) cell the bin:
//!
//! 1. builds the class-batched [`FlowPlan`] and negotiates a per-pair
//!    route assignment ([`NegotiatedRoutes::negotiate`] — PathFinder
//!    rip-up and re-route until no link is over capacity);
//! 2. records the flow-level max link load of the MIN single-path
//!    baseline vs the negotiated assignment (same units: weighted
//!    demand per directed link at unit offered load), the reduction,
//!    the convergence-iterations curve, and both fluid saturation
//!    onsets;
//! 3. sweeps the cycle engine over ascending loads (rows through the
//!    first unstable point, fig09/fig10 harness conventions) under
//!    MIN (multipath), UGAL and NEG ([`RoutingKind::Negotiated`]
//!    following the negotiated paths).
//!
//! CSV `pattern,topology,routing,offered,avg_latency,accepted,stable`
//! (the shared figure header). Every number is deterministic: the
//! negotiation is a pure function of `(seed, iteration)` and the engine
//! is bit-identical at any thread count, so the CSV is byte-identical
//! across `RAYON_NUM_THREADS` and `--engine-threads` settings — CI
//! pins this. `--quick` shrinks engine windows and the load grid;
//! `--only <key>` filters topologies; `--engine-threads <n>` shards
//! each engine run; `--metrics-dir <path>` writes one `RunManifest` per cell (with
//! a monitored NEG point and the negotiation extras); `--bench-json
//! <path>` appends `{group,bench,value,unit}` lines (group
//! `negotiate`) for CI tracking.

use bench::manifest::file_stem;
use bench::sweep_driver::{csv_row, CSV_HEADER};
use bench::{
    engine_threads, metrics_dir, quick_mode, selected_keys, table3_network, write_bench_json,
    RunManifest,
};
use polarstar_netsim::engine::{SimConfig, Simulation};
use polarstar_netsim::flow::{FlowPlan, FlowRouting, TrafficComponent};
use polarstar_netsim::monitor::MetricsMonitor;
use polarstar_netsim::negotiate::{NegotiateConfig, NegotiatedRoutes};
use polarstar_netsim::routing::{RouteTable, RoutingKind};
use polarstar_netsim::stats::{highest_stable_offered, sweep};
use polarstar_netsim::traffic::{engine_resolve_seed, Pattern};
use rayon::prelude::*;

const DEFAULT_KEYS: [&str; 3] = ["PS-IQ", "SF", "DF"];

/// One (topology, pattern) cell's output: CSV rows, bench-JSON lines,
/// and the manifest (already holding the negotiation extras).
struct Cell {
    rows: Vec<String>,
    bench: Vec<String>,
    manifest: RunManifest,
    stem: String,
}

fn sweep_cell(
    key: &str,
    pattern: &Pattern,
    loads: &[f64],
    cfg: &SimConfig,
    quick: bool,
    want_metrics: bool,
) -> Result<Cell, String> {
    let spec = table3_network(key).map_err(|e| format!("{key}: {e}"))?;
    let table = RouteTable::for_spec(&spec);
    let pat = pattern.label();
    let comps = [TrafficComponent::new(
        pattern.clone(),
        engine_resolve_seed(cfg.seed),
    )];

    // Flow-level accounting: the MIN single-path baseline (every pair on
    // its deterministic first minimal path — exactly the negotiation's
    // initial state) vs the negotiated assignment, in identical units.
    let plan = FlowPlan::build(&spec, &table, &comps, FlowRouting::EcmpSplit);
    let min_net = FlowPlan::build(&spec, &table, &comps, FlowRouting::SinglePath).network();
    let mll_min = min_net.max_net_unit_load();
    let ecmp_net = plan.network();
    let ncfg = NegotiateConfig {
        seed: cfg.seed,
        ..NegotiateConfig::default()
    };
    let neg = NegotiatedRoutes::negotiate(&spec, &table, &plan, &ncfg);
    let neg_net = FlowPlan::build(&spec, &neg, &comps, FlowRouting::SinglePath).network();
    let mll_neg = neg.max_link_load();
    let reduction = if mll_min > 0.0 {
        1.0 - mll_neg / mll_min
    } else {
        0.0
    };

    let mut manifest = RunManifest::for_network(key, &spec);
    let mut bench = Vec::new();
    let mut push = |manifest: &mut RunManifest, name: &str, value: f64, unit: &str| {
        manifest.push_extra(name, value);
        bench.push(format!(
            "{{\"group\":\"negotiate\",\"bench\":\"{key}/{pat}/{name}\",\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    };
    push(&mut manifest, "max_link_load_min", mll_min, "load");
    push(&mut manifest, "max_link_load_negotiated", mll_neg, "load");
    push(&mut manifest, "reduction_vs_min", reduction, "frac");
    push(
        &mut manifest,
        "max_link_load_ecmp",
        ecmp_net.max_net_unit_load(),
        "load",
    );
    push(
        &mut manifest,
        "converged",
        if neg.converged() { 1.0 } else { 0.0 },
        "bool",
    );
    push(
        &mut manifest,
        "iterations",
        neg.iterations() as f64,
        "iters",
    );
    push(
        &mut manifest,
        "overused_links",
        neg.overused_links() as f64,
        "links",
    );
    push(&mut manifest, "capacity", neg.capacity(), "load");
    push(
        &mut manifest,
        "sat_flow_min",
        min_net.saturation_load(),
        "load",
    );
    push(
        &mut manifest,
        "sat_flow_ecmp",
        ecmp_net.saturation_load(),
        "load",
    );
    push(
        &mut manifest,
        "sat_flow_negotiated",
        neg_net.saturation_load(),
        "load",
    );
    for (i, &ml) in neg.curve().iter().take(40).enumerate() {
        push(&mut manifest, &format!("curve_iter{i}"), ml, "load");
    }

    // Engine sweep, series in CSV order. The fig09/fig10 convention:
    // ascending loads, rows through the first unstable point.
    let neg_sim = Simulation::negotiated(&spec, &table, &neg, pattern);
    let mut rows = Vec::new();
    for sim in [
        Simulation::new(&spec, &table, RoutingKind::MinMulti, pattern),
        Simulation::new(&spec, &table, RoutingKind::ugal4(), pattern),
        neg_sim,
    ] {
        let series = sweep(&sim, loads, cfg);
        let shown = series.through_first_unstable();
        rows.extend(shown.iter().map(|r| csv_row(pattern, key, sim.kind, r)));
        push(
            &mut manifest,
            &format!("sat_engine_{}", sim.kind.label()),
            highest_stable_offered(shown),
            "load",
        );
    }

    if want_metrics {
        let mut mon = MetricsMonitor::new(if quick { 64 } else { 256 });
        neg_sim.run_monitored(0.1, cfg, &mut mon);
        manifest = manifest.with_sim("NEG", pat, 0.1, cfg, mon.report());
    }

    Ok(Cell {
        rows,
        bench,
        manifest,
        stem: file_stem(&format!("negotiate_{key}_{pat}")),
    })
}

fn main() {
    let quick = quick_mode();
    let keys = selected_keys(&DEFAULT_KEYS, &DEFAULT_KEYS);
    let patterns = [Pattern::AdversarialGroup, Pattern::Permutation];
    let cfg = SimConfig {
        warmup_cycles: if quick { 300 } else { 1_500 },
        measure_cycles: if quick { 600 } else { 4_000 },
        drain_cycles: if quick { 3_000 } else { 20_000 },
        seed: 99,
        threads: engine_threads(),
        ..SimConfig::default()
    };
    let loads: Vec<f64> = if quick {
        vec![0.05, 0.1, 0.2]
    } else {
        vec![0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5]
    };
    let dir = metrics_dir();

    let cells: Vec<(String, Pattern)> = keys
        .iter()
        .flat_map(|&k| patterns.iter().map(move |p| (k.to_string(), p.clone())))
        .collect();
    let run = |(key, pattern): &(String, Pattern)| {
        sweep_cell(key, pattern, &loads, &cfg, quick, dir.is_some())
    };
    let results: Vec<Result<Cell, String>> = cells.par_iter().map(run).collect();

    println!("{CSV_HEADER}");
    let mut bench_lines = Vec::new();
    let mut failed = false;
    for res in results {
        let cell = match res {
            Ok(c) => c,
            Err(e) => {
                eprintln!("negotiate_sweep: {e}");
                failed = true;
                continue;
            }
        };
        for row in &cell.rows {
            println!("{row}");
        }
        bench_lines.extend(cell.bench);
        if let Some(dir) = &dir {
            if let Err(e) = cell.manifest.write(dir, &cell.stem) {
                eprintln!("negotiate_sweep: writing manifest {}: {e}", cell.stem);
                failed = true;
            }
        }
    }
    if let Err(e) = write_bench_json(&bench_lines) {
        eprintln!("negotiate_sweep: {e}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
