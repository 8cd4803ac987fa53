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

/// Simulation parameters: the measurement schedule, the seed, the
/// engine's width and its fault handling. The router model itself is
/// §9.4's fixed BookSim setup ([`PACKET_FLITS`](super::PACKET_FLITS),
/// [`VCS`](super::VCS), [`BUF_FLITS_PER_PORT`](super::BUF_FLITS_PER_PORT),
/// [`LINK_LATENCY`](super::LINK_LATENCY)).
#[derive(Clone, Debug)]
pub struct SimConfig {
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
    /// one shard on the calling thread; `Some(t)` shards routers across
    /// `t` threads, the caller's among them. Results are bit-identical
    /// for every setting.
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

/// A run description the engine cannot represent, found by
/// [`Simulation::check`](super::Simulation::check) (the entry points
/// panic with this error's message rather than silently corrupting
/// state).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimConfigError {
    /// The fault schedule names a router or link outside the network
    /// (the `TopoError` text of `FaultSchedule::validate`).
    InvalidFaultSchedule(String),
    /// The route table was built on another graph, so its ports index
    /// the wrong adjacency. Both pairs are (routers, directed links);
    /// they are equal when the two graphs differ in their wiring alone.
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
            SimConfigError::InvalidFaultSchedule(why) => write!(f, "{why}"),
            SimConfigError::RouteTableMismatch { table, network } if table == network => write!(
                f,
                "route table built for a different graph of the same shape: \
                 {} routers / {} links",
                table.0, table.1
            ),
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

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
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
