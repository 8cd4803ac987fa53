//! Striped multi-tree collectives over the EDST packing: bandwidth
//! against the single-tree / ring / recursive-doubling baselines, plus
//! the resilience curve — losing k of T trees should complete at
//! ≈ T/(T−k) × the pristine time instead of disconnecting. Shared
//! between the `edst_sweep` binary (a printer) and the tests that gate
//! its rows.
//!
//! Topologies: the two Table 3 star products with factor-aware EDST
//! composition (PS-IQ, BF) and a small degree-9 PolarStar (`PS-d9`,
//! 248 routers) where the O(n²)-round ring allreduce is feasible; at
//! Table 3 scale the ring baseline is skipped (noted on stderr) — a
//! 5320-rank ring needs ~56 M sends and adds nothing the small config
//! doesn't show.
//!
//! Every row is exact-replay deterministic: no RNG, identical at any
//! rayon width.

use crate::manifest::RunManifest;
use crate::table3_network;
use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_motifs::collectives::{allreduce, AllreduceAlgo};
use polarstar_motifs::multitree::{
    striped_allreduce, striped_broadcast, FaultEpochs, RepairPolicy,
};
use polarstar_motifs::netmodel::{MotifConfig, NetModel, RoutingMode};
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::FaultSet;
use rayon::prelude::*;

/// The star-product configs the acceptance criteria target, plus the
/// small config that can afford a ring baseline.
pub const KEYS: [&str; 3] = ["PS-IQ", "BF", "PS-d9"];

/// Ring allreduce costs 2(R−1) rounds of R sends; above this many
/// ranks the baseline is skipped.
const RING_MAX_RANKS: usize = 512;

/// CSV header matching [`Sweep::csv_rows`]. `slowdown` is completion
/// over the topology's pristine striped time; `ideal_slowdown` (striped
/// rows only) is the bandwidth-loss bound E/(E−k_eff) over the
/// *effective* (byte-earning) trees — a tree too deep to win a
/// waterfilled chunk carries no bytes, so killing it costs no bandwidth
/// and it never counts toward the bound. The waterfilled striper should
/// land within 10% of it.
pub const CSV_HEADER: &str =
    "topology,routers,trees,motif,bytes_mb,lost,completion_us,slowdown,ideal_slowdown";

/// One collective run of a topology's sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub motif: &'static str,
    /// Trees killed at time zero (first edge of each victim fails); on
    /// the `striped_bcast_repair` row, trees still lost after
    /// [`RepairPolicy::Replace`] patched the victim.
    pub lost: usize,
    pub completion_us: f64,
    pub ideal_slowdown: Option<f64>,
}

/// One topology's sweep output.
pub struct Sweep {
    pub spec: NetworkSpec,
    /// Payload of every collective, bytes.
    pub bytes: u64,
    /// Trees in the EDST packing.
    pub trees: usize,
    /// Trees that earn a waterfilled chunk of the pristine broadcast.
    pub effective_trees: usize,
    /// `rows[0]` is the pristine striped broadcast.
    pub rows: Vec<Row>,
}

impl Sweep {
    /// Completion time of the `(motif, lost)` row, if the sweep ran it.
    pub fn completion_us(&self, motif: &str, lost: usize) -> Option<f64> {
        let row = self
            .rows
            .iter()
            .find(|r| r.motif == motif && r.lost == lost);
        row.map(|r| r.completion_us)
    }

    fn bytes_mb(&self) -> f64 {
        self.bytes as f64 / (1 << 20) as f64
    }

    /// One [`CSV_HEADER`] line per row.
    pub fn csv_rows(&self, key: &str) -> Vec<String> {
        let (t, mb) = (self.trees, self.bytes_mb());
        let rows = self.rows.iter().map(|r| {
            let slowdown = r.completion_us / self.rows[0].completion_us;
            let ideal = r
                .ideal_slowdown
                .map(|v| format!("{v:.4}"))
                .unwrap_or_default();
            format!(
                "{key},{},{t},{},{mb},{},{:.1},{slowdown:.4},{ideal}",
                self.spec.routers(),
                r.motif,
                r.lost,
                r.completion_us
            )
        });
        rows.collect()
    }

    /// The run's provenance record: tree counts, payload, and one
    /// `<motif>[_lose<k>]_us` scalar per row.
    pub fn manifest(&self, key: &str) -> RunManifest {
        let mut manifest = RunManifest::for_network(key, &self.spec);
        manifest.push_extra("edst_trees", self.trees as f64);
        manifest.push_extra("effective_trees", self.effective_trees as f64);
        manifest.push_extra("bytes_mb", self.bytes_mb());
        for r in &self.rows {
            let tag = if r.lost > 0 {
                format!("{}_lose{}_us", r.motif, r.lost)
            } else {
                format!("{}_us", r.motif)
            };
            manifest.push_extra(tag, r.completion_us);
        }
        manifest
    }
}

/// A topology's spec and its EDST packing.
type Built = (NetworkSpec, Vec<Vec<(u32, u32)>>);

fn build(key: &str) -> Result<Built, String> {
    if key == "PS-d9" {
        let cfg = best_config(9).ok_or("no degree-9 PolarStar config")?;
        let net = PolarStarNetwork::build(cfg, 1).map_err(|e| e.to_string())?;
        let trees = net.edst_trees();
        let mut spec = net.spec;
        spec.name = "PS-d9".into();
        Ok((spec, trees))
    } else {
        let spec = table3_network(key).map_err(|e| e.to_string())?;
        let trees = crate::table3_edst(key, &spec);
        Ok((spec, trees))
    }
}

/// Fail the first edge of each of the first `k` trees — tree-disjoint
/// kills, so exactly k trees die and the rest are untouched.
fn kill_first(trees: &[Vec<(u32, u32)>], k: usize) -> FaultEpochs {
    FaultEpochs::at_time_zero(FaultSet::from_links(trees.iter().take(k).map(|t| t[0])))
}

/// Sweep one topology of [`KEYS`]; `quick` shrinks the payload (1 MB
/// for 8 MB) and the loss curve (lose 1 for lose 1..T−1).
pub fn sweep_one(key: &str, quick: bool) -> Result<Sweep, String> {
    let bytes: u64 = if quick { 1 << 20 } else { 8 << 20 };
    let (spec, trees) = build(key)?;
    let t = trees.len();
    if t < 2 {
        return Err(format!("{key}: EDST packing has {t} tree(s); need ≥ 2"));
    }
    let model = || NetModel::new(spec.clone(), MotifConfig::default());
    let bcast = |trees: &[Vec<(u32, u32)>], epochs: &FaultEpochs, repair: RepairPolicy| {
        striped_broadcast(&mut model(), trees, bytes, epochs, repair)
            .map_err(|e| format!("{key}: {e}"))
    };
    let mut rows = Vec::new();

    let pristine = bcast(&trees, &FaultEpochs::pristine(), RepairPolicy::None)?;
    // Trees too deep to earn a waterfilled chunk carry no bytes; they
    // must not count toward the T/(T−k) bandwidth-loss bound.
    let effective_mask: Vec<bool> = pristine.delivered_bytes.iter().map(|&b| b > 0).collect();
    let effective = effective_mask.iter().filter(|&&e| e).count();
    rows.push(Row {
        motif: "striped_bcast",
        lost: 0,
        completion_us: pristine.completion_ns / 1000.0,
        ideal_slowdown: Some(1.0),
    });
    let single = bcast(&trees[..1], &FaultEpochs::pristine(), RepairPolicy::None)?;
    rows.push(Row {
        motif: "single_tree_bcast",
        lost: 0,
        completion_us: single.completion_ns / 1000.0,
        ideal_slowdown: None,
    });

    // Resilience curve: kill k of the T trees at time zero and let the
    // collective re-stripe over the survivors.
    let losses: Vec<usize> = if quick { vec![1] } else { (1..t).collect() };
    for k in losses {
        let out = bcast(&trees, &kill_first(&trees, k), RepairPolicy::None)?;
        // A killed tree too deep to earn a waterfilled chunk never
        // sends, so its death goes undetected (and costs nothing).
        assert!(out.trees_lost <= k, "{key}: more than {k} dead trees");
        // The ideal bound is over *effective* trees: killing a zero-byte
        // tree costs no bandwidth, so only the byte-earning casualties
        // shrink the stripe.
        let k_eff = effective_mask.iter().take(k).filter(|&&e| e).count();
        rows.push(Row {
            motif: "striped_bcast",
            lost: k,
            completion_us: out.completion_ns / 1000.0,
            ideal_slowdown: (effective > k_eff)
                .then(|| effective as f64 / (effective - k_eff) as f64),
        });
    }
    // Same single-tree kill, but with edge replacement: the tree is
    // patched and keeps carrying its stripe.
    let repaired = bcast(&trees, &kill_first(&trees, 1), RepairPolicy::Replace)?;
    rows.push(Row {
        motif: "striped_bcast_repair",
        lost: repaired.trees_lost,
        completion_us: repaired.completion_ns / 1000.0,
        ideal_slowdown: Some(1.0),
    });

    let ar = striped_allreduce(
        &mut model(),
        &trees,
        bytes,
        &FaultEpochs::pristine(),
        RepairPolicy::None,
    )
    .map_err(|e| format!("{key}: {e}"))?;
    rows.push(Row {
        motif: "striped_allreduce",
        lost: 0,
        completion_us: ar.completion_ns / 1000.0,
        ideal_slowdown: None,
    });
    let rd = allreduce(
        &mut model(),
        AllreduceAlgo::RecursiveDoubling,
        bytes,
        1,
        RoutingMode::Min,
    )
    .map_err(|e| format!("{key}: rd allreduce: {e}"))?;
    rows.push(Row {
        motif: "rd_allreduce",
        lost: 0,
        completion_us: rd / 1000.0,
        ideal_slowdown: None,
    });
    if spec.total_endpoints() <= RING_MAX_RANKS {
        let ring = allreduce(
            &mut model(),
            AllreduceAlgo::Ring,
            bytes,
            1,
            RoutingMode::Min,
        )
        .map_err(|e| format!("{key}: ring allreduce: {e}"))?;
        rows.push(Row {
            motif: "ring_allreduce",
            lost: 0,
            completion_us: ring / 1000.0,
            ideal_slowdown: None,
        });
    } else {
        eprintln!(
            "edst_sweep: {key}: skipping ring baseline ({} ranks > {RING_MAX_RANKS})",
            spec.total_endpoints()
        );
    }
    Ok(Sweep {
        spec,
        bytes,
        trees: t,
        effective_trees: effective,
        rows,
    })
}

/// [`sweep_one`] over `keys`, fanned out over rayon, results in key
/// order.
pub fn run_sweep(keys: &[&str], quick: bool) -> Vec<Result<Sweep, String>> {
    keys.par_iter().map(|&key| sweep_one(key, quick)).collect()
}
