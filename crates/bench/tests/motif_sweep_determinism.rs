//! The fig11 motif sweep must produce the same rows on every run: each
//! network's points share one model, reset to a freshly seeded one
//! before every point, and ordered collect restores grid order.
//! (`bins_smoke.rs` compares the `fig11_motifs` CSV across
//! `RAYON_NUM_THREADS=1` — the shim's inline path — and `=4`.)

use bench::motif_sweep::{run_sweep, MotifSweep};
use polarstar_graph::Graph;
use polarstar_motifs::netmodel::RoutingMode;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::FaultSet;

#[test]
fn sweep_rows_are_reproducible() {
    let nets = vec![
        NetworkSpec::uniform("c8", Graph::cycle(8), 2),
        NetworkSpec::uniform("k5", Graph::complete(5), 2),
        NetworkSpec::uniform("c12-faulted", Graph::cycle(12), 1)
            .with_faults(FaultSet::from_links([(0, 1)])),
    ];
    let sweep = MotifSweep {
        allreduce_bytes: vec![4 * 1024, 64 * 1024],
        sweep3d_bytes: vec![1024],
        sweep3d_grid: (3, 3),
        compute_ns: 100.0,
        iters: 2,
    };
    let modes = [RoutingMode::Min, RoutingMode::Adaptive { candidates: 4 }];
    let rows = run_sweep(&nets, &modes, &sweep).unwrap();
    // 3 nets × 2 modes × (2 allreduce sizes + 1 sweep3d size).
    assert_eq!(rows.len(), 18);
    assert_eq!(rows, run_sweep(&nets, &modes, &sweep).unwrap());
}
