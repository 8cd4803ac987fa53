//! The fault-epoch switch: re-fitting every buffered packet to the new
//! routing view.

use super::super::config::FaultResponse;
use super::super::epoch::Ctx;
use super::super::packet::{Packet, Tie, EJECT, NO_INTERMEDIATE};
use super::Shard;

impl Shard {
    /// Switch to fault epoch `e` at the cycle boundary (before any phase
    /// of cycle `now` runs, so every shard applies it under the same
    /// state regardless of thread count).
    ///
    /// Stale mode ends here: the physical masks (`port_dead`,
    /// `router_failed`) are read per cycle and the routing view never
    /// changes. Reroute mode walks every local queue and source buffer:
    /// packets at a failed router are dropped; a packet whose chosen
    /// output crosses a newly dead link is re-routed on the epoch's
    /// table (abandoning a Valiant detour whose legs died); packets
    /// whose destination the epoch cut off are dropped. Every drop from
    /// a network input returns the upstream credit at `now + 1` — never
    /// `now`, whose wheel slot already drained.
    pub(super) fn apply_epoch(&mut self, ctx: &Ctx, e: usize, now: u64) {
        self.cur_epoch = e;
        if ctx.cfg.fault_response == FaultResponse::Stale {
            return;
        }
        self.route_epoch = e;
        let vcs = self.vcs_of();
        for lr in 0..self.load.len() {
            let r = self.r0 + lr as u32;
            let deg = ctx.degree(r);
            let eps = ctx.endpoints(r);
            let failed = ctx.epochs[e].router_failed(r);
            for inport in 0..deg + eps {
                for vc in 0..vcs {
                    let qi = self.q_index(lr, inport, vc);
                    // Drain the queue once; survivors re-enter in FIFO
                    // order behind the drained prefix.
                    for k in 0..self.q.len(qi) as usize {
                        let mut p = self.q.pop(qi);
                        if !failed && self.refit_packet(ctx, r, &mut p, (inport, vc, k), now) {
                            self.q.push(qi, p);
                        } else {
                            self.drop_in_flight(p.measured);
                            self.load[lr] -= 1;
                            if inport < deg {
                                self.credit_upstream(ctx, r, inport as u16, vc as u8, now + 1);
                            }
                        }
                    }
                }
            }
            for slot in 0..eps {
                let src = self.src0 + self.eoff[lr] + slot;
                for k in 0..self.q.len(src) as usize {
                    let mut p = self.q.pop(src);
                    if !failed && self.refit_packet(ctx, r, &mut p, (deg + slot, 0, k), now) {
                        self.q.push(src, p);
                    } else {
                        self.drop_in_flight(p.measured);
                    }
                }
            }
        }
    }

    /// Decide the fate of one buffered packet at surviving router `r`
    /// under the routing epoch just switched to: `true` keeps it (possibly re-routed in place),
    /// `false` tells the caller to drop it. The re-route tie-break is a
    /// stateless hash of the packet's queue coordinates — identical at
    /// any shard count.
    fn refit_packet(
        &mut self,
        ctx: &Ctx,
        r: u32,
        p: &mut Packet,
        key: (usize, usize, usize),
        now: u64,
    ) -> bool {
        let view = self.routing(ctx);
        let mut reroute = false;
        // Abandon a Valiant detour whose legs the epoch cut; the direct
        // path is judged below like any other packet's.
        if p.phase == 0
            && p.intermediate != NO_INTERMEDIATE
            && (view.router_failed(p.intermediate)
                || !view.is_reachable(r, p.intermediate)
                || !view.is_reachable(p.intermediate, p.dst_router))
        {
            p.intermediate = NO_INTERMEDIATE;
            reroute = true;
        }
        if view.router_failed(p.dst_router)
            || (r != p.dst_router && !view.is_reachable(r, p.dst_router))
        {
            return false;
        }
        if p.cur_port != EJECT && view.port_dead(r, p.cur_port as usize) {
            reroute = true;
        }
        if reroute {
            let (inport, vc, k) = key;
            let tie = [
                Tie::queue(r, inport, vc),
                k as u64,
                now.wrapping_add(0x517c_c1b7_2722_0a95),
            ];
            if !self.route_at(ctx, p, r, Tie::Hash(&tie)) {
                return false;
            }
            self.stats.rerouted += 1;
        }
        true
    }
}
