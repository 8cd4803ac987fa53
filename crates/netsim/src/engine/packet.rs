//! What moves between a shard's phases and between shards: packets,
//! wheel events, and the per-shard statistics merged at the end.

pub(super) const EJECT: u8 = u8::MAX;
pub(super) const NO_INTERMEDIATE: u32 = u32::MAX;

/// In-flight packet state. Deliberately not `Clone`: packets move —
/// between the arena, the event wheel, and cross-shard mailboxes — and
/// are only materialized once their winning path is chosen.
#[derive(Debug)]
pub(super) struct Packet {
    pub(super) dst_router: u32,
    pub(super) dst_slot: u16,
    pub(super) intermediate: u32, // NO_INTERMEDIATE = none
    pub(super) phase: u8,
    /// Links crossed so far; saturates (a table leg is < 65 535 hops).
    pub(super) hops: u16,
    pub(super) cur_port: u8, // routed output at current router (EJECT = ejection)
    pub(super) measured: bool,
    pub(super) gen_cycle: u64,
}

impl Packet {
    /// Placeholder left in the arena when a packet moves out.
    pub(super) const fn vacant() -> Packet {
        Packet {
            dst_router: u32::MAX,
            dst_slot: 0,
            intermediate: NO_INTERMEDIATE,
            phase: 0,
            hops: 0,
            cur_port: 0,
            measured: false,
            gen_cycle: 0,
        }
    }
}

/// A scheduled effect at some router. Arrivals carry the packet by value
/// so events travel uniformly whether the target router lives in the same
/// shard or another one.
#[derive(Debug)]
pub(super) enum Ev {
    Arrive {
        router: u32,
        inport: u16,
        vc: u8,
        packet: Packet,
    },
    Credit {
        router: u32,
        outport: u8,
        vc: u8,
    },
}

impl Ev {
    #[inline]
    pub(super) fn router(&self) -> u32 {
        match self {
            Ev::Arrive { router, .. } | Ev::Credit { router, .. } => *router,
        }
    }
}

/// How `Shard::route_at` breaks a tie among several minimal output
/// ports. Injection draws from the source router's RNG stream (the draw
/// order within one router is fixed regardless of sharding); arrivals
/// use a stateless hash of `(seed, router, inport, vc, cycle)` — unique
/// per cycle — so wheel-slot drain order never feeds back into routing.
/// `Hash` carries the hash's inputs ([`Tie::queue`] first), mixed only
/// if there is a tie to break.
#[derive(Clone, Copy)]
pub(super) enum Tie<'a> {
    Stream,
    Hash(&'a [u64]),
}

impl Tie<'_> {
    /// Hash input naming queue `(inport, vc)` of router `r`.
    pub(super) fn queue(r: u32, inport: usize, vc: usize) -> u64 {
        ((r as u64) << 32) | ((inport as u64) << 16) | ((vc as u64) << 8)
    }
}

/// Order-insensitive run statistics a shard accumulates locally; merged
/// across shards in ascending shard order.
#[derive(Debug, Default)]
pub(super) struct ShardStats {
    pub(super) measured_generated: u64,
    pub(super) measured_ejected: u64,
    /// Measured packets dropped at injection: no surviving path (see
    /// [`SimResult::unroutable`](super::SimResult::unroutable)). Kept out of `measured_generated` so
    /// drain-completion checks and delivered_fraction stay meaningful.
    pub(super) unroutable: u64,
    pub(super) latency_sum: u64,
    pub(super) latencies: Vec<u32>,
    pub(super) ejected_flits_measure: u64,
    pub(super) hops_sum: u64,
    /// Latency sums/counts split by generation half of the measurement
    /// window — steady-state detection (saturated runs show growth).
    pub(super) half_sums: [u64; 2],
    pub(super) half_counts: [u64; 2],
    /// In-flight packets (any window) dropped by a live fault event.
    pub(super) faulted_total: u64,
    /// The measured subset of `faulted_total` — these were already
    /// counted in `measured_generated`, so the drain-completion check
    /// becomes `ejected + faulted == generated`.
    pub(super) measured_faulted: u64,
    /// Packets re-routed in place at an epoch switch.
    pub(super) rerouted: u64,
    /// Every ejection, measured or not — the watchdog's progress signal.
    pub(super) delivered_total: u64,
    /// Set by the driver when the watchdog terminated the run.
    pub(super) watchdog_fired: bool,
}

impl ShardStats {
    pub(super) fn merge(&mut self, other: ShardStats) {
        self.measured_generated += other.measured_generated;
        self.measured_ejected += other.measured_ejected;
        self.unroutable += other.unroutable;
        self.latency_sum += other.latency_sum;
        self.latencies.extend_from_slice(&other.latencies);
        self.ejected_flits_measure += other.ejected_flits_measure;
        self.hops_sum += other.hops_sum;
        for h in 0..2 {
            self.half_sums[h] += other.half_sums[h];
            self.half_counts[h] += other.half_counts[h];
        }
        self.faulted_total += other.faulted_total;
        self.measured_faulted += other.measured_faulted;
        self.rerouted += other.rerouted;
        self.delivered_total += other.delivered_total;
        self.watchdog_fired |= other.watchdog_fired;
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}
