//! The fig11 motif sweep grid (message sizes × motifs × routing modes ×
//! topologies), shared between the `fig11_motifs` binary and the
//! determinism tests.
//!
//! Every grid point builds its own freshly seeded [`NetModel`] from the
//! point's spec, so points are independent and the produced rows are
//! identical at any rayon width (the shim runs inline at
//! `RAYON_NUM_THREADS=1`; `tests/bins_smoke.rs` compares that CSV
//! against width 4).

use polarstar_motifs::collectives::{allreduce, sweep3d, AllreduceAlgo};
use polarstar_motifs::netmodel::{MotifConfig, MotifError, NetModel, RoutingMode};
use polarstar_topo::network::NetworkSpec;
use rayon::prelude::*;

/// Sweep dimensions (everything except topologies and routing modes).
#[derive(Clone, Debug)]
pub struct MotifSweep {
    /// Allreduce (recursive doubling) message sizes, bytes.
    pub allreduce_bytes: Vec<u64>,
    /// Sweep3D boundary-exchange message sizes, bytes.
    pub sweep3d_bytes: Vec<u64>,
    /// Sweep3D process grid (must fit every swept network).
    pub sweep3d_grid: (usize, usize),
    /// Sweep3D per-cell compute time, ns.
    pub compute_ns: f64,
    /// Iterations per point.
    pub iters: usize,
}

impl MotifSweep {
    /// The paper's fig11 setup (§10.1) extended with a message-size
    /// axis around the 64 KB / 4 KB operating points.
    pub fn fig11() -> Self {
        MotifSweep {
            allreduce_bytes: vec![16 * 1024, 64 * 1024, 256 * 1024],
            sweep3d_bytes: vec![1024, 4 * 1024, 16 * 1024],
            sweep3d_grid: (64, 64),
            compute_ns: 200.0,
            iters: 10,
        }
    }

    /// Smoke-test shape: one size per motif, two iterations.
    pub fn quick() -> Self {
        MotifSweep {
            allreduce_bytes: vec![64 * 1024],
            sweep3d_bytes: vec![4 * 1024],
            sweep3d_grid: (64, 64),
            compute_ns: 200.0,
            iters: 2,
        }
    }
}

/// One grid point, fully determined before execution.
#[derive(Clone, Debug)]
struct Point {
    motif: &'static str,
    net: usize,
    mode: RoutingMode,
    bytes: u64,
}

fn grid(nets: &[NetworkSpec], modes: &[RoutingMode], sweep: &MotifSweep) -> Vec<Point> {
    let mut points = Vec::new();
    for net in 0..nets.len() {
        for &mode in modes {
            for &bytes in &sweep.allreduce_bytes {
                points.push(Point {
                    motif: "allreduce",
                    net,
                    mode,
                    bytes,
                });
            }
            for &bytes in &sweep.sweep3d_bytes {
                points.push(Point {
                    motif: "sweep3d",
                    net,
                    mode,
                    bytes,
                });
            }
        }
    }
    points
}

fn run_point(nets: &[NetworkSpec], sweep: &MotifSweep, p: &Point) -> Result<String, MotifError> {
    let spec = nets[p.net].clone();
    let name = spec.name.clone();
    let mut model = NetModel::new(spec, MotifConfig::default());
    let t_ns = match p.motif {
        "allreduce" => allreduce(
            &mut model,
            AllreduceAlgo::RecursiveDoubling,
            p.bytes,
            sweep.iters,
            p.mode,
        )?,
        _ => {
            let (px, py) = sweep.sweep3d_grid;
            sweep3d(
                &mut model,
                px,
                py,
                p.bytes,
                sweep.compute_ns,
                sweep.iters,
                p.mode,
            )?
        }
    };
    Ok(format!(
        "{},{name},{},{},{:.1}",
        p.motif,
        p.mode.label(),
        p.bytes,
        t_ns / 1000.0
    ))
}

/// Run the full grid and return one CSV row per point, in grid order.
/// The rayon width never shows in the rows: each point is an
/// independent seeded model, and the ordered collect restores grid
/// order.
pub fn run_sweep(
    nets: &[NetworkSpec],
    modes: &[RoutingMode],
    sweep: &MotifSweep,
) -> Result<Vec<String>, MotifError> {
    let rows: Vec<Result<String, MotifError>> = grid(nets, modes, sweep)
        .par_iter()
        .map(|p| run_point(nets, sweep, p))
        .collect();
    rows.into_iter().collect()
}

/// CSV header matching [`run_sweep`] rows.
pub const SWEEP_HEADER: &str = "motif,topology,routing,bytes,time_us";
