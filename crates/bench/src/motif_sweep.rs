//! The fig11 motif sweep grid (message sizes × motifs × routing modes ×
//! topologies), shared between the `fig11_motifs` binary and the
//! determinism tests.
//!
//! Each network runs its points in grid order on one [`NetModel`],
//! [`NetModel::reset`] between points, so every point repeats a freshly
//! seeded model while the port masks it routes on are swept once per
//! network. Networks fan out over rayon, and the rows are identical at
//! any rayon width (the shim runs inline at `RAYON_NUM_THREADS=1`;
//! `tests/bins_smoke.rs` compares that CSV against width 4).

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

/// One network's grid point, fully determined before execution.
#[derive(Clone, Debug)]
struct Point {
    motif: &'static str,
    mode: RoutingMode,
    bytes: u64,
}

/// One network's points, in grid order.
fn grid(modes: &[RoutingMode], sweep: &MotifSweep) -> Vec<Point> {
    let mut points = Vec::new();
    for &mode in modes {
        for &bytes in &sweep.allreduce_bytes {
            points.push(Point {
                motif: "allreduce",
                mode,
                bytes,
            });
        }
        for &bytes in &sweep.sweep3d_bytes {
            points.push(Point {
                motif: "sweep3d",
                mode,
                bytes,
            });
        }
    }
    points
}

/// Run one point on `model`, reset first so it starts as a fresh one.
fn run_point(model: &mut NetModel, sweep: &MotifSweep, p: &Point) -> Result<String, MotifError> {
    model.reset();
    let t_ns = match p.motif {
        "allreduce" => allreduce(
            model,
            AllreduceAlgo::RecursiveDoubling,
            p.bytes,
            sweep.iters,
            p.mode,
        )?,
        _ => {
            let (px, py) = sweep.sweep3d_grid;
            sweep3d(
                model,
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
        "{},{},{},{},{:.1}",
        p.motif,
        model.spec().name,
        p.mode.label(),
        p.bytes,
        t_ns / 1000.0
    ))
}

/// Run the full grid and return one CSV row per point, in grid order
/// (network-major). The rayon width never shows in the rows: each
/// network's points run in order on its own model, reset to a fresh
/// one before every point, and the ordered collect restores network
/// order.
pub fn run_sweep(
    nets: &[NetworkSpec],
    modes: &[RoutingMode],
    sweep: &MotifSweep,
) -> Result<Vec<String>, MotifError> {
    let points = grid(modes, sweep);
    let per_net: Vec<Vec<String>> = nets
        .par_iter()
        .map(|spec| {
            let mut model = NetModel::new(spec.clone(), MotifConfig::default());
            points
                .iter()
                .map(|p| run_point(&mut model, sweep, p))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    Ok(per_net.concat())
}

/// CSV header matching [`run_sweep`] rows.
pub const SWEEP_HEADER: &str = "motif,topology,routing,bytes,time_us";
