//! Congestion-negotiated routing vs the MIN single-path and ECMP flow
//! baselines on adversarial and permutation traffic — the printer for
//! [`bench::negotiate_sweep`] (which documents the cells).
//!
//! One CSV row per (topology, pattern) under
//! [`bench::negotiate_sweep::CSV_HEADER`]. `--only <key>` filters
//! topologies; `--metrics-dir <path>` writes one `RunManifest` per cell
//! (the network plus the negotiation extras and convergence curve).
//! `--quick` is accepted like on every other sweep and shrinks nothing:
//! a flow-level cell has no simulation window.

use bench::negotiate_sweep::{sweep_cell, CSV_HEADER, KEYS};
use bench::Cli;
use polarstar_netsim::traffic::Pattern;
use rayon::prelude::*;

fn main() {
    let cli = Cli::from_env(&["--quick", "--only", "--metrics-dir"]);
    let keys = cli.selected_keys(&KEYS, &KEYS);
    let patterns = [Pattern::AdversarialGroup, Pattern::Permutation];
    let dir = cli.metrics_dir();

    let cells: Vec<(&str, &Pattern)> = keys
        .iter()
        .flat_map(|&k| patterns.iter().map(move |p| (k, p)))
        .collect();
    let results: Vec<_> = cells
        .par_iter()
        .map(|&(key, pattern)| sweep_cell(key, pattern))
        .collect();

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
        println!("{}", cell.row);
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
