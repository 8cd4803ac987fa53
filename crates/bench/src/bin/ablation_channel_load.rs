//! Ablation: per-channel load under uniform minimal routing for the
//! Table 3 networks — explains the Figure 9 MIN saturation ordering
//! (max channel load lower-bounds saturation) without running the
//! cycle simulator. `--metrics-dir <path>` writes an analytic
//! `RunManifest` JSON per topology.

use bench::{table3_network, Cli, RunManifest, TABLE3_KEYS};
use polarstar_analysis::linkload::channel_load;

fn main() {
    let cli = Cli::from_env(&["--metrics-dir"]);
    let dir = cli.metrics_dir();
    println!("topology,routers,avg_path_length,max_channel_load,imbalance");
    for key in TABLE3_KEYS {
        let net = table3_network(key).expect("Table 3 config");
        let cl = channel_load(&net.graph);
        let apl = polarstar_graph::traversal::avg_path_length(&net.graph).unwrap_or(0.0);
        println!(
            "{key},{},{apl:.3},{:.1},{:.3}",
            net.routers(),
            cl.max,
            cl.imbalance()
        );
        if let Some(dir) = dir {
            let mut m = RunManifest::for_network(key, &net);
            m.push_extra("avg_path_length", apl);
            m.push_extra("max_channel_load", cl.max as f64);
            m.push_extra("channel_load_imbalance", cl.imbalance());
            let path = m
                .write(dir, &bench::manifest::file_stem(key))
                .expect("write manifest");
            eprintln!("wrote {}", path.display());
        }
    }
}
