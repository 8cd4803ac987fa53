//! `motif_psiq`: the message-level model on PS-IQ, in the Fig. 11 shape
//! at two iterations, plus the EDST striped collectives.
//!
//! `NetModel` (`send_endpoints`, the lazy ECMP parent sets) and
//! `multitree` do all the work; neither the cycle engine nor the flow
//! layer runs. Ring allreduce (~56 M messages, 9 s MIN / 75 s UGAL for
//! two iterations) and `alltoall` are left out as too long for a
//! repeated body; the README lists them as known outliers.

use super::build_psiq;
use crate::harness::{named, Checks, Values, Workload};
use crate::trace::Tracer;
use polarstar_motifs::{
    allreduce, striped_allreduce, striped_broadcast, sweep3d, AllreduceAlgo, FaultEpochs,
    MotifConfig, MotifError, NetModel, RepairPolicy, RoutingMode, StripedOutcome,
};
use polarstar_topo::fault::FaultSet;
use polarstar_topo::network::NetworkSpec;

const ITERATIONS: usize = 2;
const RD_BYTES: [u64; 3] = [16 << 10, 64 << 10, 256 << 10];
const SWEEP_BYTES: [u64; 3] = [1 << 10, 4 << 10, 16 << 10];
const SWEEP_GRID: (usize, usize) = (64, 64);
/// Fig. 11's per-block compute time.
const SWEEP_COMPUTE_NS: f64 = 200.0;
const STRIPED_BYTES: u64 = 1 << 20;
const MODES: [RoutingMode; 2] = [RoutingMode::Min, RoutingMode::Adaptive { candidates: 4 }];

pub struct MotifPsiq {
    spec: NetworkSpec,
    cfg: MotifConfig,
    trees: Vec<Vec<(u32, u32)>>,
    /// One edge of the first (fattest) tree, failed from time zero.
    lose_one: FaultEpochs,
}

pub struct MotifOut {
    /// Modelled completion (ns) per recursive-doubling point.
    rd_ns: Vec<Result<f64, MotifError>>,
    sweep_ns: Vec<Result<f64, MotifError>>,
    bcast: Result<StripedOutcome, MotifError>,
    bcast_lose_one: Result<StripedOutcome, MotifError>,
    bcast_repaired: Result<StripedOutcome, MotifError>,
    striped_allreduce: Result<StripedOutcome, MotifError>,
}

impl MotifOut {
    fn striped(&self) -> [(&'static str, &Result<StripedOutcome, MotifError>); 4] {
        [
            ("striped_bcast", &self.bcast),
            ("striped_bcast_lose1", &self.bcast_lose_one),
            ("striped_bcast_repair", &self.bcast_repaired),
            ("striped_allreduce", &self.striped_allreduce),
        ]
    }

    /// Modelled completion times (ns) of everything that completed.
    fn model_ns(&self) -> impl Iterator<Item = f64> + '_ {
        let timed = self.rd_ns.iter().chain(&self.sweep_ns).flatten().copied();
        let striped = self
            .striped()
            .map(|(_, r)| r.as_ref().ok().map(|o| o.completion_ns));
        timed.chain(striped.into_iter().flatten())
    }
}

impl Workload for MotifPsiq {
    type Out = MotifOut;

    fn setup(seed: u64, tr: &mut Tracer) -> Self {
        let net = tr.span("topo.network_build", build_psiq);
        let trees = tr.span("topo.edst_pack", || net.edst_trees());
        let victim = trees[0][seed as usize % trees[0].len()];
        MotifPsiq {
            spec: net.spec,
            cfg: MotifConfig {
                seed,
                ..MotifConfig::default()
            },
            trees,
            lose_one: FaultEpochs::at_time_zero(FaultSet::from_links([victim])),
        }
    }

    fn body(&mut self, tr: &mut Tracer) -> MotifOut {
        // Every point starts from an idle network, as the figure's do.
        let model = || NetModel::new(self.spec.clone(), self.cfg.clone());
        let mut rd_ns = Vec::new();
        for bytes in RD_BYTES {
            for mode in MODES {
                let span = match mode {
                    RoutingMode::Min => "motifs.rd_allreduce_min",
                    RoutingMode::Adaptive { .. } => "motifs.rd_allreduce_ugal",
                };
                rd_ns.push(tr.span(span, || {
                    let algo = AllreduceAlgo::RecursiveDoubling;
                    allreduce(&mut model(), algo, bytes, ITERATIONS, mode)
                }));
            }
        }
        let mut sweep_ns = Vec::new();
        for bytes in SWEEP_BYTES {
            for mode in MODES {
                sweep_ns.push(tr.span("motifs.sweep3d", || {
                    let (px, py) = SWEEP_GRID;
                    sweep3d(
                        &mut model(),
                        px,
                        py,
                        bytes,
                        SWEEP_COMPUTE_NS,
                        ITERATIONS,
                        mode,
                    )
                }));
            }
        }
        let pristine = FaultEpochs::pristine();
        let mut bcast = |epochs: &FaultEpochs, repair: RepairPolicy| {
            tr.span("motifs.striped", || {
                striped_broadcast(&mut model(), &self.trees, STRIPED_BYTES, epochs, repair)
            })
        };
        let bcast_pristine = bcast(&pristine, RepairPolicy::None);
        let bcast_lose_one = bcast(&self.lose_one, RepairPolicy::None);
        let bcast_repaired = bcast(&self.lose_one, RepairPolicy::Replace);
        let striped_allreduce = tr.span("motifs.striped", || {
            let repair = RepairPolicy::None;
            striped_allreduce(&mut model(), &self.trees, STRIPED_BYTES, &pristine, repair)
        });
        MotifOut {
            rd_ns,
            sweep_ns,
            bcast: bcast_pristine,
            bcast_lose_one,
            bcast_repaired,
            striped_allreduce,
        }
    }

    /// Collective iterations modelled.
    fn work(&self, out: &MotifOut) -> u64 {
        ((out.rd_ns.len() + out.sweep_ns.len()) * ITERATIONS + out.striped().len()) as u64
    }

    fn exact(&self, out: &MotifOut) -> Vec<(String, f64)> {
        let rd_us: f64 = out.rd_ns.iter().flatten().sum::<f64>() / 1e3;
        let completion_us = |r: &Result<StripedOutcome, MotifError>| {
            r.as_ref().map_or(0.0, |o| o.completion_ns / 1e3)
        };
        let effective = out
            .bcast
            .as_ref()
            .map_or(0, |o| o.delivered_bytes.iter().filter(|&&b| b > 0).count());
        let mut v = named(&[
            ("sim.collective_us", out.model_ns().sum::<f64>() / 1e3),
            ("motifs.rd_allreduce_model_us", rd_us),
            ("motifs.striped_bcast_model_us", completion_us(&out.bcast)),
            (
                "motifs.lose1_slowdown",
                completion_us(&out.bcast_lose_one) / completion_us(&out.bcast),
            ),
            ("motifs.effective_trees", effective as f64),
            ("topo.edst_trees", self.trees.len() as f64),
        ]);
        for (i, ns) in out.model_ns().enumerate() {
            v.push((format!("collective.{i}.ns"), ns));
        }
        v
    }

    fn verify(&mut self, out: &MotifOut, checks: &mut Checks) {
        for (what, points) in [("rd_allreduce", &out.rd_ns), ("sweep3d", &out.sweep_ns)] {
            for (i, r) in points.iter().enumerate() {
                checks.check(matches!(r, Ok(ns) if *ns > 0.0), || {
                    format!("{what} point {i}: {r:?}")
                });
            }
        }
        for (what, r) in out.striped() {
            match r {
                Err(e) => checks.check(false, || format!("{what}: {e}")),
                Ok(o) => checks.check(
                    o.delivered_bytes.iter().sum::<u64>() == STRIPED_BYTES,
                    || {
                        format!(
                            "{what}: delivered {:?} of {STRIPED_BYTES} B",
                            o.delivered_bytes
                        )
                    },
                ),
            }
        }
        checks.check(self.trees.len() == 6, || {
            format!(
                "{} edge-disjoint trees packed on PS-IQ, not 6",
                self.trees.len()
            )
        });
        if let (Ok(lost), Ok(repaired)) = (&out.bcast_lose_one, &out.bcast_repaired) {
            checks.check(lost.trees_lost == 1 && lost.trees_repaired == 0, || {
                format!("lose-1 run lost {} trees", lost.trees_lost)
            });
            checks.check(repaired.trees_lost + repaired.trees_repaired == 1, || {
                format!("repair run: {repaired:?}")
            });
        }
    }

    fn probe(&mut self, _out: &MotifOut, _tr: &Tracer, _values: &mut Values) {}
}
