//! The engine's public parameter and result types.

use polarstar_topo::fault::FaultSchedule;

/// How the engine responds when a [`FaultSchedule`] epoch takes effect
/// mid-run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FaultResponse {
    /// Online route repair: per-epoch route tables are prebuilt from the
    /// schedule, packets queued on a newly dead link are re-routed (or
    /// dropped when the destination became unreachable), and
    /// Valiant/UGAL candidate filtering follows the current epoch.
    #[default]
    Reroute,
    /// Physical failure only: dead links stop carrying traffic, but all
    /// routing state stays at the cycle-0 view — an unconverged control
    /// plane. Packets routed onto a dead link wait forever, modeling the
    /// wedge the watchdog exists to catch.
    Stale,
}

/// Simulation parameters; defaults follow §9.4 (4-flit packets, 128-flit
/// buffers per port, 4 VCs).
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Flits per packet.
    pub packet_flits: u32,
    /// Virtual channels per port.
    pub vcs: usize,
    /// Flit buffer per port, divided evenly among VCs.
    pub buf_flits_per_port: u32,
    /// Link traversal latency in cycles.
    pub link_latency: u32,
    /// Cycles before measurement starts.
    pub warmup_cycles: u64,
    /// Measurement window length.
    pub measure_cycles: u64,
    /// Max extra cycles to drain measured packets (`u64::MAX`: drain
    /// until empty).
    pub drain_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Engine worker threads for one run: `None` (or `Some(0|1)`) runs
    /// the single-threaded path; `Some(t)` shards routers across `t`
    /// threads. Results are bit-identical for every setting.
    pub threads: Option<usize>,
    /// Timed mid-run fault events, layered on top of the spec's static
    /// [`polarstar_topo::FaultSet`]. `None` keeps faults static for the
    /// whole run. Epochs are materialized (and their route tables built)
    /// before cycle 0, so the schedule costs nothing on the hot path and
    /// results stay bit-identical at any thread count.
    pub fault_schedule: Option<FaultSchedule>,
    /// What an epoch switch does to routing state and queued packets.
    pub fault_response: FaultResponse,
    /// Watchdog: terminate the run (with a diagnostic snapshot through
    /// [`SimMonitor::on_watchdog`](crate::monitor::SimMonitor::on_watchdog)) after this many consecutive cycles
    /// with zero deliveries while packets sit buffered — a wedged
    /// network. `None` disables; the default catches deadlock without
    /// ever firing on a live (even deeply saturated) network.
    pub watchdog_cycles: Option<u64>,
    /// Run the self-check pass (`Shard::check_invariants`) every this
    /// many cycles: credit conservation, packet-arena conservation, and
    /// queue bounds. Panics on violation. `None` (the default) skips it;
    /// it is a debugging/CI tool, not a production-path feature.
    pub invariant_check_every: Option<u64>,
}

/// A [`SimConfig`] or run description the engine cannot represent.
/// Checked by [`SimConfig::validate`] and [`Simulation::check`](super::Simulation::check) (the
/// entry points panic with this error's message rather than silently
/// corrupting state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimConfigError {
    /// `packet_flits == 0`: zero-length packets would deliver events in
    /// the same cycle they are sent.
    ZeroPacketFlits,
    /// `vcs == 0`: every port needs at least one virtual channel.
    ZeroVcs,
    /// The per-VC queue capacity (`buf_flits_per_port / vcs /
    /// packet_flits` packets) exceeds what the `u16` credit counters
    /// can count — a credit return would silently wrap.
    QueueCapacityOverflow {
        /// The capacity the config implies, in packets per VC.
        cap_pkts: u32,
        /// The largest representable capacity.
        max: u32,
    },
    /// `packet_flits + link_latency + 2` event-wheel slots overflow
    /// `u32` — arrivals would wrap into the wrong slot.
    WheelOverflow {
        packet_flits: u32,
        link_latency: u32,
    },
    /// The fault schedule names a router or link outside the network
    /// (the `TopoError` text of `FaultSchedule::validate`).
    InvalidFaultSchedule(String),
    /// The route table was built on another graph, so its ports index
    /// the wrong adjacency. Both pairs are (routers, directed links).
    RouteTableMismatch {
        table: (usize, usize),
        network: (usize, usize),
    },
    /// `Ugal { candidates }` beyond the fixed scoring scratch.
    TooManyUgalCandidates { candidates: usize, max: usize },
}

impl std::fmt::Display for SimConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimConfigError::ZeroPacketFlits => {
                write!(f, "packet_flits must be >= 1 (zero-length packets would deliver events in the same cycle)")
            }
            SimConfigError::ZeroVcs => write!(f, "vcs must be >= 1"),
            SimConfigError::QueueCapacityOverflow { cap_pkts, max } => write!(
                f,
                "per-VC queue capacity of {cap_pkts} packets exceeds the u16 arena limit of {max} \
                 (shrink buf_flits_per_port or raise vcs/packet_flits)"
            ),
            SimConfigError::WheelOverflow {
                packet_flits,
                link_latency,
            } => write!(
                f,
                "event wheel of packet_flits ({packet_flits}) + link_latency ({link_latency}) + 2 \
                 slots overflows u32"
            ),
            SimConfigError::InvalidFaultSchedule(why) => write!(f, "{why}"),
            SimConfigError::RouteTableMismatch { table, network } => write!(
                f,
                "route table built for a different graph: {} routers / {} links, \
                 the network has {} / {}",
                table.0, table.1, network.0, network.1
            ),
            SimConfigError::TooManyUgalCandidates { candidates, max } => {
                write!(
                    f,
                    "Ugal {{ candidates: {candidates} }} exceeds the scoring scratch ({max})"
                )
            }
        }
    }
}

impl std::error::Error for SimConfigError {}

impl SimConfig {
    /// The per-VC input queue capacity this config implies, in packets.
    pub fn queue_capacity_pkts(&self) -> u32 {
        // Divided in `usize`: `vcs as u32` is 0 for `vcs = 1 << 32`.
        let per_vc = self.buf_flits_per_port as usize / self.vcs.max(1);
        (per_vc as u32 / self.packet_flits.max(1)).max(1)
    }

    /// Check the engine can represent this config. The per-(port, VC)
    /// credit counters are `u16`, so a per-VC capacity ≥ 65 536 packets
    /// would silently wrap, and the event-wheel length is computed in
    /// `u32` — both are rejected here instead. Capacity costs no
    /// memory: queues are linked lists over the buffered packets.
    pub fn validate(&self) -> Result<(), SimConfigError> {
        if self.packet_flits < 1 {
            return Err(SimConfigError::ZeroPacketFlits);
        }
        if self.vcs < 1 {
            return Err(SimConfigError::ZeroVcs);
        }
        let cap_pkts = self.queue_capacity_pkts();
        if cap_pkts > u16::MAX as u32 {
            return Err(SimConfigError::QueueCapacityOverflow {
                cap_pkts,
                max: u16::MAX as u32,
            });
        }
        if self
            .packet_flits
            .checked_add(self.link_latency)
            .and_then(|slots| slots.checked_add(2))
            .is_none()
        {
            return Err(SimConfigError::WheelOverflow {
                packet_flits: self.packet_flits,
                link_latency: self.link_latency,
            });
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            packet_flits: 4,
            vcs: 4,
            buf_flits_per_port: 128,
            link_latency: 1,
            warmup_cycles: 2_000,
            measure_cycles: 5_000,
            drain_cycles: 20_000,
            seed: 0x9e3779b97f4a7c15,
            threads: None,
            fault_schedule: None,
            fault_response: FaultResponse::Reroute,
            watchdog_cycles: Some(10_000),
            invariant_check_every: None,
        }
    }
}

/// Outcome of one simulation point.
///
/// `PartialEq` is exact (floats included): determinism tests compare
/// results across engine-thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Offered load (fraction of endpoint injection bandwidth).
    pub offered: f64,
    /// Accepted throughput: ejected flits per active endpoint per cycle
    /// during the measurement window.
    pub accepted: f64,
    /// Mean packet latency (cycles, generation → tail ejection) over
    /// measured packets.
    pub avg_latency: f64,
    /// 99th-percentile latency of measured packets.
    pub p99_latency: f64,
    /// Measured packets ejected / measured packets generated.
    pub delivered_fraction: f64,
    /// Whether the run drained its measured packets (a saturated network
    /// fails to, or shows runaway latency).
    pub stable: bool,
    /// Measured packets ejected.
    pub measured_ejected: u64,
    /// Mean hop count of measured packets (minimal routing on a
    /// diameter-3 network gives ≤ 3 + 1 ejection-free hops).
    pub avg_hops: f64,
    /// Measured packets dropped at injection because the fault-degraded
    /// network offers no path (source/destination router failed or the
    /// pair is disconnected). Always 0 on a pristine network; never
    /// counted in `delivered_fraction`'s denominator.
    pub unroutable: u64,
    /// Packets (all windows) dropped in flight by a live fault event: the
    /// packet was buffered or on the wire when its router died or its
    /// destination became unreachable. Always 0 without a
    /// [`FaultSchedule`].
    pub faulted_in_flight: u64,
    /// Packets re-routed in place at a fault-epoch switch because their
    /// chosen output port crossed a newly dead link.
    pub rerouted: u64,
    /// The watchdog cut the run short: the network sat wedged (buffered
    /// packets, zero deliveries) for `SimConfig::watchdog_cycles`
    /// consecutive cycles. A diagnostic snapshot went to the monitor's
    /// `on_watchdog` hook.
    pub watchdog_fired: bool,
}
