//! Figure 11: Allreduce and Sweep3D motifs (SST/Ember substitute).
//!
//! Message sizes × motifs × routing × topologies, 20 ns latencies,
//! 4 GB/s links, linear rank mapping (§10.1). CSV
//! `motif,topology,routing,bytes,time_us`.
//!
//! The networks fan out over rayon, each running its points in order
//! on one model reset between points; the CSV is byte-identical at any
//! `RAYON_NUM_THREADS`.
//! `--quick` shrinks sizes and iterations for smoke tests;
//! `--only <key>` restricts topologies.

use bench::motif_sweep::{run_sweep, MotifSweep, SWEEP_HEADER};
use bench::{table3_network, Cli, TABLE3_KEYS};
use polarstar_motifs::netmodel::RoutingMode;

/// Fig. 11's topology subset: PolarStar vs Dragonfly, HyperX, fat tree.
const DEFAULT_KEYS: [&str; 4] = ["PS-IQ", "DF", "HX", "FT"];

fn main() {
    let cli = Cli::from_env(&["--quick", "--only"]);
    let keys = cli.selected_keys(&TABLE3_KEYS, &DEFAULT_KEYS);
    let mut nets = Vec::new();
    for key in keys {
        match table3_network(key) {
            Ok(net) => nets.push(net),
            Err(e) => {
                eprintln!("fig11_motifs: {key}: {e}");
                std::process::exit(1);
            }
        }
    }
    let sweep = if cli.has("--quick") {
        MotifSweep::quick()
    } else {
        MotifSweep::fig11()
    };
    let modes = [RoutingMode::Min, RoutingMode::Adaptive { candidates: 4 }];
    let rows = match run_sweep(&nets, &modes, &sweep) {
        Ok(rows) => rows,
        // Table 3 networks are pristine and host every grid point; any
        // motif error is a harness bug.
        Err(e) => {
            eprintln!("fig11_motifs: {e}");
            std::process::exit(1);
        }
    };
    println!("{SWEEP_HEADER}");
    for row in rows {
        println!("{row}");
    }
}
