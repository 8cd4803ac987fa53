//! Congestion-negotiated routing vs MIN/UGAL on adversarial and
//! permutation traffic — the printer for [`bench::negotiate_sweep`]
//! (which documents the cells).
//!
//! CSV `pattern,topology,routing,offered,avg_latency,accepted,stable`
//! (the shared figure header). `--quick` shrinks engine windows and the
//! load grid; `--only <key>` filters topologies; `--engine-threads <n>`
//! shards each engine run; `--metrics-dir <path>` writes one
//! `RunManifest` per cell (with a monitored NEG point and the
//! negotiation extras).

use bench::negotiate_sweep::{sweep_cell, KEYS};
use bench::sweep_driver::CSV_HEADER;
use bench::Cli;
use polarstar_netsim::engine::SimConfig;
use polarstar_netsim::traffic::Pattern;
use rayon::prelude::*;

fn main() {
    let cli = Cli::from_env(&["--quick", "--only", "--engine-threads", "--metrics-dir"]);
    let quick = cli.has("--quick");
    let keys = cli.selected_keys(&KEYS, &KEYS);
    let patterns = [Pattern::AdversarialGroup, Pattern::Permutation];
    let cfg = SimConfig {
        warmup_cycles: if quick { 300 } else { 1_500 },
        measure_cycles: if quick { 600 } else { 4_000 },
        drain_cycles: if quick { 3_000 } else { 20_000 },
        seed: 99,
        threads: cli.engine_threads(),
        ..SimConfig::default()
    };
    let loads: Vec<f64> = if quick {
        vec![0.05, 0.1, 0.2]
    } else {
        vec![0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5]
    };
    let dir = cli.metrics_dir();

    let cells: Vec<(&str, &Pattern)> = keys
        .iter()
        .flat_map(|&k| patterns.iter().map(move |p| (k, p)))
        .collect();
    let run = |&(key, pattern): &(&str, &Pattern)| {
        sweep_cell(key, pattern, &loads, &cfg, quick, dir.is_some())
    };
    let results: Vec<_> = cells.par_iter().map(run).collect();

    println!("{CSV_HEADER}");
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
        if let Some(dir) = dir {
            if let Err(e) = cell.manifest.write(dir, &cell.stem) {
                eprintln!("negotiate_sweep: writing manifest {}: {e}", cell.stem);
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
