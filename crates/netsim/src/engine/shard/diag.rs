//! Read-only passes over a shard's state: the watchdog snapshot and the
//! invariant checker.

use super::super::epoch::Ctx;
use super::super::packet::Ev;
use super::super::{CAP_PKTS, VCS};
use super::Shard;
use crate::monitor::WatchdogDiag;

impl Shard {
    /// Snapshot of this shard's stuck state for the watchdog report:
    /// per-VC occupancy, zero-credit port count, oldest buffered packet
    /// age, and (a sample of) the routers holding traffic.
    pub(in crate::engine) fn watchdog_diag(
        &self,
        fired_at: u64,
        stalled_cycles: u64,
    ) -> WatchdogDiag {
        let mut vc_occupancy = vec![0u64; VCS];
        for qi in self.q.nonempty(0..self.src0) {
            vc_occupancy[qi % VCS] += self.q.len(qi) as u64;
        }
        let buffered_packets: u64 = self.load.iter().map(|&l| l as u64).sum();
        let zero_credit_ports = self.credits.iter().filter(|&&c| c == 0).count();
        // Input queues and source buffers alike.
        let oldest_packet_age = (self.q.nonempty(0..self.src0 + self.eject_busy.len()))
            .flat_map(|qi| self.q.iter(qi))
            .map(|p| fired_at - p.gen_cycle)
            .max()
            .unwrap_or(0);
        let stuck_routers: Vec<u32> = self
            .load
            .iter()
            .enumerate()
            .filter(|&(_, &l)| l > 0)
            .map(|(lr, _)| self.r0 + lr as u32)
            .take(8)
            .collect();
        WatchdogDiag {
            fired_at,
            stalled_cycles,
            buffered_packets,
            vc_occupancy,
            zero_credit_ports,
            total_credit_ports: self.credits.len(),
            oldest_packet_age,
            stuck_routers,
        }
    }

    /// Invariant pass ([`SimConfig::invariant_check_every`](crate::engine::SimConfig::invariant_check_every)): queue
    /// bounds, router-load consistency, the queue store's structure
    /// (bitmap, links, and packet-arena conservation: every slot queued,
    /// source-buffered or vacant — in-flight packets travel by value
    /// inside events, outside the arena), and — for links with both
    /// endpoints in this shard — exact credit conservation including
    /// in-flight wheel events. Panics on violation; runs after the
    /// cycle's phases complete.
    pub(in crate::engine) fn check_invariants(&self, ctx: &Ctx, now: u64) {
        for lr in 0..self.load.len() {
            let mut sum = 0u32;
            for qi in self.qoff[lr]..self.qoff[lr + 1] {
                let l = self.q.len(qi);
                assert!(l <= CAP_PKTS, "cycle {now}: queue {qi} exceeds capacity");
                sum += l;
            }
            assert_eq!(
                sum, self.load[lr],
                "cycle {now}: load[{lr}] out of sync with its queues"
            );
        }
        self.q.check();
        // Credit conservation per (link, vc): credit held at the sender +
        // credits in flight back + packets buffered downstream +
        // arrivals in flight == capacity. Only checkable when both ends
        // are local (cross-shard events may sit in mailboxes).
        let mut arr_inflight = vec![0u32; self.src0];
        let mut cred_inflight = vec![0u32; self.credits.len()];
        for slot in &self.wheel {
            for ev in slot {
                match *ev {
                    Ev::Arrive {
                        router, inport, vc, ..
                    } => {
                        let lr = self.lr(router);
                        arr_inflight[self.q_index(lr, inport as usize, vc as usize)] += 1;
                    }
                    Ev::Credit {
                        router,
                        outport,
                        vc,
                    } => {
                        let lr = self.lr(router);
                        cred_inflight[(self.poff[lr] + outport as usize) * VCS + vc as usize] += 1;
                    }
                }
            }
        }
        for lr in 0..self.load.len() {
            let r = self.r0 + lr as u32;
            for (port, &v) in ctx.graph.neighbors(r).iter().enumerate() {
                let ci_base = (self.poff[lr] + port) * VCS;
                for vc in 0..VCS {
                    let ci = ci_base + vc;
                    assert!(
                        (self.credits[ci] as u32) <= CAP_PKTS,
                        "cycle {now}: credit overflow at router {r} port {port} vc {vc}"
                    );
                    if v < self.r0 || v >= self.r1 {
                        continue;
                    }
                    let back = ctx.back_port[ctx.slot(r, port)] as usize;
                    let qv = self.q_index(self.lr(v), back, vc);
                    let total = self.credits[ci] as u32
                        + cred_inflight[ci]
                        + self.q.len(qv)
                        + arr_inflight[qv];
                    assert_eq!(
                        total, CAP_PKTS,
                        "cycle {now}: credit conservation broken on link {r}→{v} vc {vc}"
                    );
                }
            }
        }
    }
}
