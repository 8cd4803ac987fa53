//! The cycle loop: input-queued virtual-channel routers with credit-based
//! flow control and virtual cut-through switching.
//!
//! See the crate docs for the model. The engine is deterministic for a
//! fixed seed at *any* thread count: routers are partitioned into
//! contiguous shards, each simulated cycle runs as compute phases
//! separated by a barrier, and cross-shard effects travel as
//! `Ev::Arrive`/`Ev::Credit` events through per-shard outboxes. Two
//! properties make shard boundaries unobservable:
//!
//! * **Per-router RNG streams.** Every router owns a ChaCha8 stream
//!   seeded from `(cfg.seed, router id)`, and all draws a router makes
//!   (generation Bernoulli, destinations, UGAL/Valiant intermediates,
//!   minimal-port picks) come from its own stream in a fixed per-router
//!   order. No draw order is shared across routers, so it cannot depend
//!   on how routers are grouped into threads.
//! * **Commutative event delivery.** Credit-based flow control
//!   serializes each directed link for [`PACKET_FLITS`] ≥ 1 cycles, so at
//!   most one packet arrives per (router, inport, vc) per cycle:
//!   arrivals land in distinct input queues, credits are plain
//!   increments, and stats are integer sums — all insensitive to the
//!   order events are drained from a wheel slot. The one
//!   order-sensitive operation, breaking a tie among several minimal
//!   output ports on arrival, uses a stateless hash of
//!   `(seed, router, inport, vc, cycle)` instead of an RNG stream, so no
//!   per-slot sort is needed. All cross-router effects land at least one
//!   cycle in the future, so one barrier per cycle suffices.
//!
//! One driver runs every thread count: `threads: None` is a single
//! whole-network shard on the calling thread, and more shards add
//! threads around it — results are bit-identical by construction, which
//! `tests/determinism.rs` locks in.
//!
//! Hot-path state lives in flat arenas whose size follows the traffic,
//! not the buffer capacity: input queues and source buffers are linked
//! FIFOs threaded through the packet arena (one `next` link per slot),
//! a bitmap of the non-empty ones is all switch allocation scans,
//! credits/busy-horizons/round-robin pointers are offset-indexed flat
//! vectors, and the arena grows to the most packets ever buffered at
//! once and recycles slots from then on, so the steady state does not
//! allocate.

mod config;
mod epoch;
mod packet;
mod run;
mod shard;

pub use config::{FaultResponse, SimConfig, SimConfigError, SimResult};
pub(crate) use packet::splitmix64;

use crate::monitor::{NoopMonitor, SimMonitor};
use crate::routing::{RouteTable, RoutingKind};
use crate::traffic::{resolve, Pattern};
use epoch::Ctx;
use polarstar_topo::network::NetworkSpec;

/// Largest `Ugal { candidates }` the fixed scoring scratch supports.
const MAX_UGAL_CANDIDATES: usize = 16;

/// Flits per packet (§9.4).
pub const PACKET_FLITS: u32 = 4;
/// Virtual channels per port (§9.4).
pub const VCS: usize = 4;
/// Flit buffer per port, divided evenly among the VCs (§9.4).
pub const BUF_FLITS_PER_PORT: u32 = 128;
/// Link traversal latency in cycles.
pub const LINK_LATENCY: u32 = 1;

/// Per-VC input buffer capacity, in packets (8).
const CAP_PKTS: u32 = BUF_FLITS_PER_PORT / VCS as u32 / PACKET_FLITS;
/// Event-wheel slots: the farthest event is an arrival `PACKET_FLITS +
/// LINK_LATENCY` cycles out (7).
const WHEEL_LEN: usize = (PACKET_FLITS + LINK_LATENCY + 2) as usize;

// Serialization takes ≥ 1 cycle (events land in a later slot), a VC
// index travels as a `u8`, credits are `u16` counters, and the wheel
// length is computed in `u32`.
const _: () = assert!(PACKET_FLITS >= 1 && VCS >= 1 && VCS <= 256);
const _: () = assert!(CAP_PKTS >= 1 && CAP_PKTS <= u16::MAX as u32);
const _: () = assert!(PACKET_FLITS.checked_add(LINK_LATENCY + 2).is_some());

/// One run description: the network, its routing state, the routing
/// scheme and the traffic — everything about a simulation except the
/// load point and the engine parameters, which [`Simulation::run`]
/// takes per call so one description serves a whole sweep.
#[derive(Clone, Copy)]
pub struct Simulation<'a> {
    /// The simulated network.
    pub spec: &'a NetworkSpec,
    /// Minimal-route table built for `spec`.
    pub table: &'a RouteTable,
    /// How packets pick output ports.
    pub kind: RoutingKind,
    /// Synthetic traffic pattern.
    pub pattern: &'a Pattern,
}

impl<'a> Simulation<'a> {
    /// Describe a run; nothing is checked until [`Simulation::check`].
    pub fn new(
        spec: &'a NetworkSpec,
        table: &'a RouteTable,
        kind: RoutingKind,
        pattern: &'a Pattern,
    ) -> Self {
        Simulation {
            spec,
            table,
            kind,
            pattern,
        }
    }

    /// Whether the engine can run this description under `cfg`: the
    /// fault schedule fits the network, the table was built for it,
    /// and the routing kind fits the scoring scratch.
    /// [`Simulation::run`] panics with the error's message.
    pub fn check(&self, cfg: &SimConfig) -> Result<(), SimConfigError> {
        if let Some(schedule) = &cfg.fault_schedule {
            schedule
                .validate(self.spec.graph.n())
                .map_err(|e| SimConfigError::InvalidFaultSchedule(e.to_string()))?;
        }
        // Ports are offsets into the table's graph CSR; on any other
        // graph — even one of the same shape — they name the wrong
        // link, or none.
        let g = &self.spec.graph;
        if !self.table.routes(g) {
            let table = (self.table.n(), self.table.num_links());
            let network = (g.n(), g.directed_edge_count());
            return Err(SimConfigError::RouteTableMismatch { table, network });
        }
        match self.kind {
            RoutingKind::Ugal { candidates } if candidates > MAX_UGAL_CANDIDATES => {
                Err(SimConfigError::TooManyUgalCandidates {
                    candidates,
                    max: MAX_UGAL_CANDIDATES,
                })
            }
            _ => Ok(()),
        }
    }

    /// Simulate at `load` (fraction of injection bandwidth).
    pub fn run(&self, load: f64, cfg: &SimConfig) -> SimResult {
        self.run_monitored(load, cfg, &mut NoopMonitor)
    }

    /// [`Simulation::run`] with instrumentation: every engine event is
    /// reported to `monitor` (see [`crate::monitor`]). The plain path
    /// uses [`NoopMonitor`], whose hooks monomorphize to nothing. Each
    /// shard reports into a fork of `monitor`, absorbed back in shard
    /// order when the run ends.
    pub fn run_monitored<M: SimMonitor>(
        &self,
        load: f64,
        cfg: &SimConfig,
        monitor: &mut M,
    ) -> SimResult {
        assert!((0.0..=1.0).contains(&load));
        if let Err(e) = self.check(cfg) {
            panic!("{e}");
        }
        let resolved = resolve(
            self.pattern,
            self.spec,
            crate::traffic::engine_resolve_seed(cfg.seed),
        );
        let ctx = Ctx::new(self, resolved, load, cfg.clone());
        monitor.on_run_start(self.spec);
        let sample_every = monitor.sample_interval();
        let (stats, cycles) = run::run_sharded(&ctx, sample_every, monitor);
        monitor.on_run_end(cycles);
        ctx.finalize(stats)
    }
}

/// Positional shorthand for `Simulation::new(..).run(load, cfg)`.
pub fn simulate(
    spec: &NetworkSpec,
    table: &RouteTable,
    kind: RoutingKind,
    pattern: &Pattern,
    load: f64,
    cfg: &SimConfig,
) -> SimResult {
    Simulation::new(spec, table, kind, pattern).run(load, cfg)
}

#[cfg(test)]
mod tests;
