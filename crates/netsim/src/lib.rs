//! Cycle-level interconnection-network simulator — the reproduction's
//! BookSim substitute for the paper's §9 synthetic-traffic evaluation.
//!
//! The model is an input-queued virtual-channel router with credit-based
//! flow control and virtual cut-through switching:
//!
//! * packets are [`PACKET_FLITS`](engine::PACKET_FLITS) = 4 flits; a
//!   packet transfers over a link at one flit per cycle once switch
//!   allocation succeeds and the downstream virtual-channel buffer has
//!   room for the whole packet, then spends
//!   [`LINK_LATENCY`](engine::LINK_LATENCY) = 1 cycle on the wire;
//! * each router port has a [`BUF_FLITS_PER_PORT`](engine::BUF_FLITS_PER_PORT)
//!   = 128-flit buffer divided evenly among its [`VCS`](engine::VCS) = 4
//!   virtual channels (8 packets each); credits flow back when a packet
//!   leaves a buffer;
//! * switch allocation is round-robin per output port over requesting
//!   input VCs; VC selection is hop-indexed (ascending VCs are a
//!   sufficient deadlock-avoidance discipline for the ≤ 7-hop paths that
//!   occur here);
//! * endpoints inject with Bernoulli arrivals at a configured fraction of
//!   link bandwidth; sources are infinite, so saturation shows up as
//!   unbounded latency growth, exactly as in the paper's Figure 9.
//!
//! A single run is deterministic for a fixed seed at *any* engine thread
//! count (`SimConfig::threads`): routers are sharded across threads and
//! cross-shard events exchange through barrier-separated phases, with
//! per-router RNG streams making the schedule unobservable. Sweep-level
//! parallelism (rayon, in [`stats`]) composes with engine-level
//! parallelism; see EXPERIMENTS.md for guidance on which to use.
//!
//! The paper's BookSim setup (4-flit packets, 128-flit buffers per port,
//! 4 VCs, credit flow control) is the engine's constants, and its
//! warm-up before measurement [`SimConfig`]'s default. BookSim's wormhole pipeline differs in
//! absolute cycle counts; latency-vs-load *shape* — who saturates first
//! and at what load — is preserved, which is what the reproduction
//! compares.
//!
//! Modules:
//!
//! * [`routing`] — minimal next-hop tables (single- and multi-path),
//!   Valiant misrouting and UGAL adaptive selection (§9.3);
//! * [`traffic`] — the synthetic patterns of §9.4 and the adversarial
//!   pattern of §9.6;
//! * [`engine`] — the cycle loop: one [`Simulation`] run description in,
//!   one [`SimResult`] out;
//! * [`flow`] — the flow-level fast path: max-min fair rate sharing over
//!   per-endpoint flows routed through any
//!   [`PathOracle`](polarstar_topo::oracle::PathOracle), for 100k+
//!   endpoint scale studies the cycle loop cannot reach;
//! * [`monitor`] — observability hooks: link utilization, VC occupancy,
//!   stall causes, latency histograms, a cycle-bucketed delivery series
//!   (zero-cost when unused);
//! * [`negotiate`] — offline PathFinder-style congestion-negotiated
//!   routing: a per-pair single-path assignment minimizing max link
//!   load, a [`PathOracle`](polarstar_topo::oracle::PathOracle) the
//!   flow solver routes over (the cycle engine does not follow it);
//! * [`stats`] — load sweeps, saturation detection, latency summaries.

pub mod engine;
pub mod flow;
pub mod monitor;
pub mod negotiate;
pub mod routing;
pub mod stats;
pub mod traffic;

pub use engine::{simulate, FaultResponse, SimConfig, SimConfigError, SimResult, Simulation};
pub use flow::{
    FlowDemand, FlowNetwork, FlowPlan, FlowResult, FlowRouting, PlannedFlow, TrafficComponent,
};
pub use monitor::{
    MetricsMonitor, MetricsReport, NoopMonitor, ShardableMonitor, SimMonitor, StallCause,
    WatchdogDiag,
};
pub use negotiate::NegotiatedRoutes;
pub use routing::{RouteTable, RoutingKind};
pub use stats::{fluid_onset, highest_stable_offered};
pub use traffic::Pattern;
