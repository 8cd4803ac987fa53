//! Striped multi-tree collectives over the EDST packing — the printer
//! for [`bench::edst_sweep`] (which documents the sweep and its CSV
//! columns). `--quick` shrinks the payload and the loss curve;
//! `--only <key>` filters; `--metrics-dir <path>` writes a
//! `RunManifest` per topology.

use bench::edst_sweep::{run_sweep, CSV_HEADER, KEYS};
use bench::manifest::file_stem;
use bench::Cli;

fn main() {
    let cli = Cli::from_env(&["--quick", "--only", "--metrics-dir"]);
    let keys = cli.selected_keys(&KEYS, &KEYS);
    println!("{CSV_HEADER}");
    let mut failed = false;
    for (key, res) in keys.iter().zip(run_sweep(&keys, cli.has("--quick"))) {
        let sweep = match res {
            Ok(v) => v,
            Err(e) => {
                eprintln!("edst_sweep: {e}");
                failed = true;
                continue;
            }
        };
        for row in sweep.csv_rows(key) {
            println!("{row}");
        }
        if let Some(dir) = cli.metrics_dir() {
            let stem = file_stem(&format!("edst_sweep_{key}"));
            if let Err(e) = sweep.manifest(key).write(dir, &stem) {
                eprintln!("edst_sweep: writing manifest for {key}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
