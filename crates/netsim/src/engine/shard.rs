//! One shard: a contiguous range of routers, their flat-arena state,
//! and the compute phases of a simulated cycle.

mod diag;
mod fifo;
mod refit;

use super::epoch::{Ctx, Epoch};
use super::packet::{splitmix64, Ev, Packet, ShardStats, Tie, EJECT, NO_INTERMEDIATE};
use super::run::Exit;
use super::{
    BUF_FLITS_PER_PORT, CAP_PKTS, LINK_LATENCY, MAX_UGAL_CANDIDATES, PACKET_FLITS, VCS, WHEEL_LEN,
};
use crate::monitor::{SimMonitor, StallCause};
use crate::routing::RoutingKind;
use fifo::QueueStore;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One contiguous range of routers and all their mutable state, laid out
/// as flat arenas indexed by per-shard prefix-sum offsets.
pub(super) struct Shard {
    /// Global router range [r0, r1).
    r0: u32,
    r1: u32,
    /// Per-local-router offsets: queues (qoff, ×VCS), network ports
    /// (poff), endpoint slots (eoff), round-robin pointers (rroff,
    /// deg + 1 per router). All len local_n + 1.
    qoff: Vec<usize>,
    poff: Vec<usize>,
    eoff: Vec<usize>,
    /// Every buffered packet and its place in line: input queue qi
    /// (qoff-indexed, at most `CAP_PKTS` long) is list qi, and the unbounded
    /// source buffer of endpoint slot e (eoff-indexed) is list src0 + e.
    q: QueueStore,
    src0: usize,
    /// Downstream credit per (network outport, vc): (poff + port)*VCS+vc.
    credits: Vec<u16>,
    /// Output-busy horizon per network outport (poff-indexed).
    out_busy: Vec<u64>,
    /// Ejection-busy horizon per endpoint slot (eoff-indexed).
    eject_busy: Vec<u64>,
    /// Round-robin pointer per outport plus one virtual ejection port.
    rr: Vec<u32>,
    /// Buffered packets per local router (skip-idle fast path).
    load: Vec<u32>,
    /// One deterministic RNG stream per local router, seeded from
    /// (cfg.seed, global router id) — draw order is router-local, so
    /// results cannot depend on shard boundaries.
    rngs: Vec<ChaCha8Rng>,
    /// Event wheel over `WHEEL_LEN` slots (local events only).
    wheel: Vec<Vec<Ev>>,
    /// Outgoing cross-shard events, one buffer per destination shard.
    outboxes: Vec<Vec<(u64, Ev)>>,
    /// Locally active routers (global ids; deduplicated via flags).
    pub(super) active: Vec<u32>,
    active_scratch: Vec<u32>,
    active_flag: Vec<bool>,
    /// Reusable switch-allocation scratch.
    req_buf: Vec<(u16, u8, u8)>,
    granted_slots: Vec<u16>,
    cand_buf: [u32; MAX_UGAL_CANDIDATES],
    /// Fault epoch this shard last applied (see [`Ctx::epoch_of`]) —
    /// the physical masks in force.
    cur_epoch: usize,
    /// The epoch routing decisions read: `cur_epoch` once
    /// [`Shard::apply_epoch`] has re-fitted the queues to it, epoch 0
    /// forever under [`FaultResponse::Stale`](super::FaultResponse::Stale).
    route_epoch: usize,
    pub(super) stats: ShardStats,
}

impl Shard {
    pub(super) fn new(ctx: &Ctx, id: usize) -> Self {
        let r0 = ctx.shard_starts[id];
        let r1 = ctx.shard_starts[id + 1];
        let local_n = (r1 - r0) as usize;
        let mut qoff = Vec::with_capacity(local_n + 1);
        let mut poff = Vec::with_capacity(local_n + 1);
        let mut eoff = Vec::with_capacity(local_n + 1);
        qoff.push(0);
        poff.push(0);
        eoff.push(0);
        for lr in 0..local_n {
            let r = r0 + lr as u32;
            let deg = ctx.degree(r);
            let eps = ctx.endpoints(r);
            qoff.push(qoff[lr] + (deg + eps) * VCS);
            poff.push(poff[lr] + deg);
            eoff.push(eoff[lr] + eps);
        }
        let q_count = qoff[local_n];
        let port_count = poff[local_n];
        let ep_count = eoff[local_n];
        let rngs = (0..local_n)
            .map(|lr| {
                let r = r0 + lr as u32;
                ChaCha8Rng::seed_from_u64(splitmix64(
                    ctx.cfg.seed.wrapping_add(splitmix64(r as u64 + 1)),
                ))
            })
            .collect();
        let mut wheel = Vec::with_capacity(WHEEL_LEN);
        for _ in 0..WHEEL_LEN {
            wheel.push(Vec::with_capacity((port_count + ep_count).max(4)));
        }
        Shard {
            r0,
            r1,
            qoff,
            poff,
            eoff,
            q: QueueStore::new(q_count + ep_count),
            src0: q_count,
            credits: vec![CAP_PKTS as u16; port_count * VCS],
            out_busy: vec![0; port_count],
            eject_busy: vec![0; ep_count],
            rr: vec![0; port_count + local_n],
            load: vec![0; local_n],
            rngs,
            wheel,
            outboxes: (0..ctx.shards()).map(|_| Vec::new()).collect(),
            active: Vec::with_capacity(local_n),
            active_scratch: Vec::with_capacity(local_n),
            active_flag: vec![false; local_n],
            req_buf: Vec::new(),
            granted_slots: Vec::new(),
            cand_buf: [0; MAX_UGAL_CANDIDATES],
            cur_epoch: 0,
            route_epoch: 0,
            stats: ShardStats::default(),
        }
    }

    #[inline]
    fn lr(&self, r: u32) -> usize {
        debug_assert!(self.r0 <= r && r < self.r1);
        (r - self.r0) as usize
    }

    #[inline]
    fn q_index(&self, lr: usize, inport: usize, vc: usize) -> usize {
        self.qoff[lr] + inport * VCS + vc
    }

    #[inline]
    fn mark_active(&mut self, r: u32) {
        let lr = self.lr(r);
        if !self.active_flag[lr] {
            self.active_flag[lr] = true;
            self.active.push(r);
        }
    }

    /// Queue an event: into the local wheel when this shard owns the
    /// target router, otherwise into that shard's outbox.
    #[inline]
    fn emit(&mut self, ctx: &Ctx, at: u64, ev: Ev) {
        let dst = ev.router();
        if self.r0 <= dst && dst < self.r1 {
            self.enqueue_local(at, ev);
        } else {
            self.outboxes[ctx.shard_of(dst)].push((at, ev));
        }
    }

    /// Push an event due at absolute cycle `at` into the wheel.
    #[inline]
    pub(super) fn enqueue_local(&mut self, at: u64, ev: Ev) {
        self.wheel[(at % WHEEL_LEN as u64) as usize].push(ev);
    }

    /// Take this shard's cross-shard outbox for `dst` (capacity returns
    /// via the mailbox swap protocol).
    pub(super) fn outbox_mut(&mut self, dst: usize) -> &mut Vec<(u64, Ev)> {
        &mut self.outboxes[dst]
    }

    /// Run every compute phase of cycle `now`: fault-epoch switch, VC
    /// sampling, packet generation, event delivery (order-insensitive),
    /// and switch allocation. After `step`, `active` lists exactly the
    /// local routers with buffered packets.
    pub(super) fn step<M: SimMonitor>(
        &mut self,
        ctx: &Ctx,
        now: u64,
        sample_every: Option<u64>,
        mon: &mut M,
    ) {
        let e = ctx.epoch_of(now);
        if e != self.cur_epoch {
            self.apply_epoch(ctx, e, now);
        }
        if let Some(k) = sample_every {
            if now.is_multiple_of(k) {
                self.sample_vc(now, mon);
            }
        }
        if now < ctx.end_measure {
            self.generate(ctx, now, mon);
        }
        self.deliver(ctx, now);
        self.allocate_all(ctx, now, mon);
        if let Some(k) = ctx.cfg.invariant_check_every {
            if now.is_multiple_of(k) {
                self.check_invariants(ctx, now);
            }
        }
    }

    /// The epoch routing decisions read.
    #[inline]
    fn routing<'c, 'a>(&self, ctx: &'c Ctx<'a>) -> &'c Epoch<'a> {
        &ctx.epochs[self.route_epoch]
    }

    /// The epoch physically in force.
    #[inline]
    fn physical<'c, 'a>(&self, ctx: &'c Ctx<'a>) -> &'c Epoch<'a> {
        &ctx.epochs[self.cur_epoch]
    }

    /// Locally buffered packets per VC, reported to the monitor (summed
    /// across shards by `ShardableMonitor::absorb`).
    fn sample_vc<M: SimMonitor>(&self, now: u64, mon: &mut M) {
        let mut occupancy = [0u64; VCS];
        for qi in self.q.nonempty(0..self.src0) {
            occupancy[qi % VCS] += self.q.len(qi) as u64;
        }
        for (vc, &occupied) in occupancy.iter().enumerate() {
            mon.on_vc_sample(now, vc, occupied);
        }
    }

    /// Generation phase: each active local endpoint flips its router's
    /// Bernoulli coin and, on success, builds, routes, and enqueues one
    /// packet.
    fn generate<M: SimMonitor>(&mut self, ctx: &Ctx, now: u64, mon: &mut M) {
        for lr in 0..self.load.len() {
            let r = self.r0 + lr as u32;
            let eps = ctx.endpoints(r);
            for slot in 0..eps {
                let ep = ctx.ep_off[r as usize] as usize + slot;
                if !ctx.active_src[ep] || self.rngs[lr].gen::<f64>() >= ctx.p_gen {
                    continue;
                }
                self.generate_packet(ctx, ep as u32, r, slot, now, mon);
            }
        }
    }

    fn generate_packet<M: SimMonitor>(
        &mut self,
        ctx: &Ctx,
        src_ep: u32,
        src_router: u32,
        slot: usize,
        now: u64,
        mon: &mut M,
    ) {
        let lr = self.lr(src_router);
        let dst_ep = match ctx.pattern.destination(src_ep, &mut self.rngs[lr]) {
            Some(d) => d,
            None => return,
        };
        let (dst_router, dst_slot) = ctx.ep_router[dst_ep as usize];
        let measured = now >= ctx.cfg.warmup_cycles && now < ctx.end_measure;
        // Fault handling: a packet whose source or destination router is
        // dead, or whose pair the degraded network no longer connects,
        // is dropped here — before any path state is materialized — and
        // counted instead of wedging the drain loop. The destination was
        // already drawn, so per-router RNG draw order (and therefore
        // cross-thread determinism) is unaffected. Everything consults
        // the routing view: a Stale control plane keeps injecting toward
        // faults it has not learned about.
        let view = self.routing(ctx);
        if view.router_failed(src_router)
            || view.router_failed(dst_router)
            || (src_router != dst_router && !view.is_reachable(src_router, dst_router))
        {
            if measured {
                self.stats.unroutable += 1;
            }
            mon.on_unroutable(src_router);
            return;
        }
        let intermediate = match ctx.kind {
            RoutingKind::Ugal { candidates } if src_router != dst_router => {
                self.ugal_intermediate(ctx, src_router, dst_router, now, candidates)
            }
            RoutingKind::Valiant if src_router != dst_router => {
                // Uniform random intermediate (≠ endpoints, and with both
                // misroute legs surviving any fault degradation).
                let n = ctx.graph.n() as u32;
                let usable = |i: u32| {
                    i != src_router
                        && i != dst_router
                        && view.is_reachable(src_router, i)
                        && view.is_reachable(i, dst_router)
                };
                let rng = &mut self.rngs[lr];
                let mut i = rng.gen_range(0..n);
                for _ in 0..4 {
                    if usable(i) {
                        break;
                    }
                    i = rng.gen_range(0..n);
                }
                if usable(i) {
                    i
                } else {
                    NO_INTERMEDIATE
                }
            }
            _ => NO_INTERMEDIATE,
        };
        // The packet is materialized only now, after the candidate
        // comparison settled on a path.
        let mut p = Packet {
            dst_router,
            dst_slot,
            intermediate,
            phase: 0,
            hops: 0,
            cur_port: 0,
            measured,
            gen_cycle: now,
        };
        // The reachability pre-check above guarantees a minimal port
        // exists, but route on the same epoch view defensively: a false
        // return drops the packet as unroutable rather than panicking.
        if !self.route_at(ctx, &mut p, src_router, Tie::Stream) {
            if measured {
                self.stats.unroutable += 1;
            }
            mon.on_unroutable(src_router);
            return;
        }
        if measured {
            self.stats.measured_generated += 1;
        }
        let src = self.src0 + self.eoff[lr] + slot;
        // Into the injection input if there is room (injection buffer =
        // one VC of cap packets), behind whatever the source buffer
        // still holds (an epoch switch can empty the VC under it).
        let deg = ctx.degree(src_router);
        let qi = self.q_index(lr, deg + slot, 0);
        if self.q.len(qi) >= CAP_PKTS {
            self.q.push(src, p);
            mon.on_injection_backpressure(src_router);
        } else {
            if self.q.len(src) == 0 {
                self.q.push(qi, p);
            } else {
                self.q.push(src, p);
                self.q.shift(src, qi);
            }
            self.load[lr] += 1;
        }
        self.mark_active(src_router);
    }

    /// Route `p` at local router `r`: set `cur_port` (EJECT or a network
    /// port) and handle Valiant phase transitions. Returns `false` when
    /// the current routing epoch offers no port toward the target — the
    /// caller must drop the packet (possible only after a live fault cut
    /// the destination off).
    #[must_use]
    fn route_at(&mut self, ctx: &Ctx, p: &mut Packet, r: u32, tie: Tie) -> bool {
        if p.phase == 0 && p.intermediate != NO_INTERMEDIATE && r == p.intermediate {
            p.phase = 1;
        }
        let target = if p.phase == 0 && p.intermediate != NO_INTERMEDIATE {
            p.intermediate
        } else {
            p.dst_router
        };
        if r == target && target == p.dst_router {
            p.cur_port = EJECT;
            return true;
        }
        // Ports are `u8`: a table's graph has degree < 256.
        let (mut buf, mut len) = ([0u8; 256], 0);
        self.routing(ctx).min_ports(r, target).for_each(|port| {
            buf[len] = port;
            len += 1;
        });
        let ports = &buf[..len];
        if ports.is_empty() {
            return false;
        }
        p.cur_port = match ctx.kind {
            RoutingKind::MinSingle => ports[0],
            RoutingKind::MinMulti | RoutingKind::Valiant | RoutingKind::Ugal { .. } => {
                if ports.len() == 1 {
                    ports[0]
                } else {
                    let idx = match tie {
                        Tie::Stream => {
                            let lr = self.lr(r);
                            self.rngs[lr].gen_range(0..ports.len())
                        }
                        Tie::Hash(inputs) => {
                            let h = inputs.iter().fold(ctx.cfg.seed, |h, &x| h ^ splitmix64(x));
                            (splitmix64(h) % ports.len() as u64) as usize
                        }
                    };
                    ports[idx]
                }
            }
        };
        true
    }

    /// Occupancy proxy for UGAL: packets worth of consumed credit on the
    /// first minimal port toward `target`, plus residual serialization.
    fn port_cost(&self, ctx: &Ctx, r: u32, target: u32, now: u64) -> u64 {
        let Some(port) = self.routing(ctx).min_ports(r, target).next() else {
            return 0;
        };
        let (lr, port) = (self.lr(r), port as usize);
        let base = (self.poff[lr] + port) * VCS;
        let cap: u32 = self.credits[base..base + VCS]
            .iter()
            .map(|&c| c as u32)
            .sum();
        let max_cap = BUF_FLITS_PER_PORT / PACKET_FLITS;
        let consumed = max_cap.saturating_sub(cap) as u64;
        let busy = self.out_busy[self.poff[lr] + port].saturating_sub(now);
        consumed * PACKET_FLITS as u64 + busy
    }

    /// UGAL-L decision at injection (§9.3): min path vs the best of k
    /// random Valiant intermediates, judged by local occupancy × hops.
    /// Candidates are drawn first, then scored on borrowed table and
    /// credit state — no packet exists until the winner is known.
    fn ugal_intermediate(
        &mut self,
        ctx: &Ctx,
        src_router: u32,
        dst_router: u32,
        now: u64,
        k: usize,
    ) -> u32 {
        let view = self.routing(ctx);
        let n = ctx.graph.n() as u32;
        let lr = self.lr(src_router);
        for c in &mut self.cand_buf[..k] {
            *c = self.rngs[lr].gen_range(0..n);
        }
        let dmin = view.distance(src_router, dst_router) as u64;
        let min_cost = (dmin.max(1))
            * (self.port_cost(ctx, src_router, dst_router, now) + PACKET_FLITS as u64);
        let mut best = NO_INTERMEDIATE;
        let mut best_cost = min_cost;
        for ci in 0..k {
            let i = self.cand_buf[ci];
            // All k candidates are drawn before filtering so the RNG draw
            // count per injection is fixed; fault-degraded candidates
            // (either misroute leg disconnected) are then skipped.
            if i == src_router
                || i == dst_router
                || !view.is_reachable(src_router, i)
                || !view.is_reachable(i, dst_router)
            {
                continue;
            }
            let hops = view.distance(src_router, i) as u64 + view.distance(i, dst_router) as u64;
            // Exact prune: the cost below is at least this, and only a
            // strictly lower one wins.
            if hops.max(1) * PACKET_FLITS as u64 >= best_cost {
                continue;
            }
            let cost =
                hops.max(1) * (self.port_cost(ctx, src_router, i, now) + PACKET_FLITS as u64);
            if cost < best_cost {
                best_cost = cost;
                best = i;
            }
        }
        best
    }

    /// Deliver this cycle's wheel slot. Processing is insensitive to the
    /// order events sit in the slot: at most one arrival lands per
    /// (router, inport, vc) per cycle (links serialize for
    /// `PACKET_FLITS ≥ 1` cycles), each arrival goes to its own input
    /// queue, credits are plain increments, and the arrival-path port
    /// tie-break is a stateless hash of a tuple that is unique this
    /// cycle — so the result is independent of emission order (and hence
    /// of shard count) without sorting.
    fn deliver(&mut self, ctx: &Ctx, now: u64) {
        let slot = (now % WHEEL_LEN as u64) as usize;
        let mut events = std::mem::take(&mut self.wheel[slot]);
        for ev in events.drain(..) {
            match ev {
                Ev::Arrive {
                    router,
                    inport,
                    vc,
                    packet,
                } => {
                    let mut packet = packet;
                    // A packet can arrive at a router that died while it
                    // was on the wire, or find its destination cut off by
                    // the epoch that just switched. Either way the hop
                    // completes, the packet is dropped, and the upstream
                    // buffer slot is reclaimed one cycle later (never at
                    // `now`: this slot already drained, and cross-shard
                    // effects must stay ≥ 1 cycle in the future).
                    let tie = [
                        Tie::queue(router, inport as usize, vc as usize),
                        now.wrapping_add(0x9e37_79b9_7f4a_7c15),
                    ];
                    if self.physical(ctx).router_failed(router)
                        || !self.route_at(ctx, &mut packet, router, Tie::Hash(&tie))
                    {
                        self.drop_in_flight(packet.measured);
                        self.credit_upstream(ctx, router, inport, vc, now + 1);
                        continue;
                    }
                    let lr = self.lr(router);
                    let qi = self.q_index(lr, inport as usize, vc as usize);
                    // Credit accounting must keep arrivals within the VC
                    // buffer capacity.
                    debug_assert!(
                        self.q.len(qi) < CAP_PKTS,
                        "VC buffer overflow in queue {qi}"
                    );
                    self.q.push(qi, packet);
                    self.load[lr] += 1;
                    self.mark_active(router);
                }
                Ev::Credit {
                    router,
                    outport,
                    vc,
                } => {
                    let lr = self.lr(router);
                    self.credits[(self.poff[lr] + outport as usize) * VCS + vc as usize] += 1;
                    self.mark_active(router);
                }
            }
        }
        self.wheel[slot] = events;
    }

    /// Allocation phase over the active set. Iteration order does not
    /// matter: allocation touches only router-local state and draws no
    /// randomness, and delivery is commutative (see [`Shard::deliver`]).
    fn allocate_all<M: SimMonitor>(&mut self, ctx: &Ctx, now: u64, mon: &mut M) {
        std::mem::swap(&mut self.active, &mut self.active_scratch);
        for i in 0..self.active_scratch.len() {
            let lr = self.lr(self.active_scratch[i]);
            self.active_flag[lr] = false;
        }
        for i in 0..self.active_scratch.len() {
            let r = self.active_scratch[i];
            self.allocate(ctx, r, now, mon);
            if self.load[self.lr(r)] > 0 {
                self.mark_active(r);
            }
        }
        self.active_scratch.clear();
    }

    /// Switch allocation at router `r`: every output port (and every
    /// ejection port) accepts at most one packet per cycle, chosen
    /// round-robin among requesting input VCs.
    fn allocate<M: SimMonitor>(&mut self, ctx: &Ctx, r: u32, now: u64, mon: &mut M) {
        let lr = self.lr(r);
        let deg = ctx.degree(r);
        let eps = ctx.endpoints(r);
        let n_inputs = deg + eps;
        let qbase = self.qoff[lr];
        let rrbase = self.poff[lr] + lr;

        // Collect head requests (inport, vc, desired output) into the
        // reusable scratch, then process them grouped by output port.
        let mut requests = std::mem::take(&mut self.req_buf);
        requests.clear();
        for qi in self.q.nonempty(qbase..qbase + n_inputs * VCS) {
            let (inport, vc) = ((qi - qbase) / VCS, (qi - qbase) % VCS);
            let port = self.q.front(qi).cur_port;
            requests.push((inport as u16, vc as u8, port));
        }
        if requests.is_empty() {
            self.req_buf = requests;
            self.refill_injection(ctx, r);
            return;
        }
        // Group by output port (EJECT = 255 sorts last).
        if requests.len() > 1 {
            requests.sort_unstable_by_key(|&(i, v, o)| (o, i, v));
        }

        let mut gi = 0usize;
        while gi < requests.len() {
            let out = requests[gi].2;
            let mut ge = gi + 1;
            while ge < requests.len() && requests[ge].2 == out {
                ge += 1;
            }
            let gstart = gi;
            let glen = ge - gi;
            gi = ge;
            if out == EJECT {
                // Ejection: one grant per endpoint slot per packet-time.
                let rr = self.rr[rrbase + deg] as usize;
                self.granted_slots.clear();
                let mut granted_slots = std::mem::take(&mut self.granted_slots);
                for k in 0..glen {
                    let (inport, vc, _) = requests[gstart + (rr + k) % glen];
                    let qi = qbase + inport as usize * VCS + vc as usize;
                    let slot = self.q.front(qi).dst_slot;
                    if granted_slots.contains(&slot)
                        || self.eject_busy[self.eoff[lr] + slot as usize] > now
                    {
                        continue;
                    }
                    granted_slots.push(slot);
                    self.eject(ctx, r, inport, vc, slot, now, mon);
                    self.rr[rrbase + deg] = ((rr + k) % glen) as u32 + 1;
                }
                self.granted_slots = granted_slots;
                continue;
            }
            let out = out as usize;
            // A dead link carries nothing, whatever the routing state
            // believes. Under Reroute the epoch switch already re-routed
            // queued packets, so this never triggers; under Stale it is
            // where the stale control plane meets physical reality and
            // head-of-line packets wedge their queues.
            if self.physical(ctx).port_dead(ctx.slot(r, out)) {
                for _ in 0..glen {
                    mon.on_stall(r, StallCause::DeadLink);
                }
                continue;
            }
            if self.out_busy[self.poff[lr] + out] > now {
                mon.on_stall(r, StallCause::Crossbar);
                continue;
            }
            let rr = self.rr[rrbase + out] as usize;
            let mut examined = 0usize;
            let mut granted = false;
            for k in 0..glen {
                let (inport, vc, _) = requests[gstart + (rr + k) % glen];
                let qi = qbase + inport as usize * VCS + vc as usize;
                // The hop-indexed VC ladder, capped at its top rung.
                let next_vc = (self.q.front(qi).hops as usize).min(VCS - 1);
                examined += 1;
                if self.credits[(self.poff[lr] + out) * VCS + next_vc] == 0 {
                    mon.on_stall(r, StallCause::CreditStarved);
                    continue;
                }
                self.rr[rrbase + out] = ((rr + k) % glen) as u32 + 1;
                self.send(ctx, r, inport, vc, out, next_vc as u8, now, mon);
                granted = true;
                break;
            }
            if granted {
                // Requests never examined lost the port to this cycle's
                // winner — VC-allocation stalls.
                for _ in examined..glen {
                    mon.on_stall(r, StallCause::VcAllocation);
                }
            }
        }
        self.req_buf = requests;
        self.refill_injection(ctx, r);
    }

    /// Move waiting source-queue packets into free injection buffers.
    fn refill_injection(&mut self, ctx: &Ctx, r: u32) {
        let lr = self.lr(r);
        let deg = ctx.degree(r);
        let eps = ctx.endpoints(r);
        for slot in 0..eps {
            let src = self.src0 + self.eoff[lr] + slot;
            let qi = self.q_index(lr, deg + slot, 0);
            while self.q.len(src) > 0 && self.q.len(qi) < CAP_PKTS {
                self.q.shift(src, qi);
                self.load[lr] += 1;
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send<M: SimMonitor>(
        &mut self,
        ctx: &Ctx,
        r: u32,
        inport: u16,
        vc: u8,
        out: usize,
        next_vc: u8,
        now: u64,
        mon: &mut M,
    ) {
        let lr = self.lr(r);
        let qi = self.q_index(lr, inport as usize, vc as usize);
        let mut p = self.q.pop(qi);
        self.load[lr] -= 1;
        p.hops = p.hops.saturating_add(1);
        let serialize = PACKET_FLITS as u64;
        self.out_busy[self.poff[lr] + out] = now + serialize;
        self.credits[(self.poff[lr] + out) * VCS + next_vc as usize] -= 1;
        mon.on_link_flit(r, out, PACKET_FLITS);

        let next_router = ctx.graph.neighbors(r)[out];
        let next_inport = ctx.back_port[ctx.slot(r, out)] as u16;
        let arrive_at = now + serialize + LINK_LATENCY as u64;
        self.emit(
            ctx,
            arrive_at,
            Ev::Arrive {
                router: next_router,
                inport: next_inport,
                vc: next_vc,
                packet: p,
            },
        );
        // Credit return to the upstream router once the packet fully
        // leaves this buffer (network inputs only; injection has no
        // upstream).
        let deg = ctx.degree(r);
        if (inport as usize) < deg {
            self.credit_upstream(ctx, r, inport, vc, now + serialize);
        }
    }

    fn credit_upstream(&mut self, ctx: &Ctx, r: u32, inport: u16, vc: u8, at: u64) {
        let upstream = ctx.graph.neighbors(r)[inport as usize];
        let up_out = ctx.back_port[ctx.slot(r, inport as usize)];
        self.emit(
            ctx,
            at,
            Ev::Credit {
                router: upstream,
                outport: up_out,
                vc,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn eject<M: SimMonitor>(
        &mut self,
        ctx: &Ctx,
        r: u32,
        inport: u16,
        vc: u8,
        slot: u16,
        now: u64,
        mon: &mut M,
    ) {
        let lr = self.lr(r);
        let qi = self.q_index(lr, inport as usize, vc as usize);
        let p = self.q.pop(qi);
        self.load[lr] -= 1;
        let serialize = PACKET_FLITS as u64;
        self.eject_busy[self.eoff[lr] + slot as usize] = now + serialize;
        let done = now + serialize;
        self.stats.delivered_total += 1;
        mon.on_packet_delivered(done, done - p.gen_cycle, p.hops as u32, p.measured);
        if p.measured {
            self.stats.measured_ejected += 1;
            let lat = (done - p.gen_cycle) as u32;
            self.stats.latency_sum += lat as u64;
            self.stats.latencies.push(lat);
            self.stats.hops_sum += p.hops as u64;
            let mid = ctx.cfg.warmup_cycles + ctx.cfg.measure_cycles / 2;
            let half = usize::from(p.gen_cycle >= mid);
            self.stats.half_sums[half] += lat as u64;
            self.stats.half_counts[half] += 1;
        }
        if now >= ctx.cfg.warmup_cycles && now < ctx.end_measure {
            self.stats.ejected_flits_measure += PACKET_FLITS as u64;
        }
        // Credit return to upstream.
        if (inport as usize) < ctx.degree(r) {
            self.credit_upstream(ctx, r, inport, vc, now + serialize);
        }
    }

    /// Account one in-flight packet killed by a live fault.
    fn drop_in_flight(&mut self, measured: bool) {
        self.stats.faulted_total += 1;
        if measured {
            self.stats.measured_faulted += 1;
        }
    }

    /// Stop after cycle `now` on `exit`: a wedge snapshots this shard's
    /// stuck state for the monitor and marks the run. Returns the cycle
    /// count.
    pub(super) fn stop<M: SimMonitor>(&mut self, exit: Exit, now: u64, mon: &mut M) -> u64 {
        if let Exit::Wedged { stalled } = exit {
            mon.on_watchdog(&self.watchdog_diag(now + 1, stalled));
            self.stats.watchdog_fired = true;
        }
        now + 1
    }
}
