//! The cycle driver and the stop verdict it applies.
//!
//! One driver runs every simulation over contiguous shards of routers
//! ([`Shard`]), one thread each, bit-identical at any shard count.
//! Shard 0 is the calling thread, so a one-shard run spawns none. A
//! simulated cycle is one compute phase per shard followed by a single
//! barrier:
//!
//! 1. **Drain** — pull cross-shard events published during the previous
//!    cycle from this shard's mailboxes (in ascending source-shard
//!    order; delivery is commutative — arrivals land in distinct
//!    queues and break port ties by a stateless hash, see the engine
//!    module docs — so drain order cannot matter).
//! 2. **Step** — generation, delivery, and switch allocation over the
//!    shard's routers (`Shard::step`).
//! 3. **Publish** — swap each non-empty outbox into the destination
//!    shard's mailbox and post this shard's cumulative progress
//!    counters.
//! 4. **Barrier** — after it, every shard reads the same progress
//!    snapshot and makes the same exit decision.
//!
//! One barrier per cycle is enough because every cross-router effect
//! (packet arrival, credit return) is scheduled at least one cycle in
//! the future — packet serialization takes ≥ 1 cycle. Mailboxes and
//! progress slots are double-buffered by cycle parity: events emitted
//! in cycle `c` land in parity `c & 1` and are drained in cycle `c + 1`
//! from parity `(c + 1) & 1 ^ 1`; the buffers of parity `c & 1` are not
//! written again until cycle `c + 2`, by which time the barrier at the
//! end of cycle `c + 1` has ordered the drain before the write.

use super::epoch::Ctx;
use super::packet::{Ev, ShardStats};
use super::shard::Shard;
use crate::monitor::SimMonitor;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Why the driver stops before `hard_end`.
pub(super) enum Exit {
    /// Everything measured has drained.
    Drained,
    /// The network sat wedged for this many consecutive cycles.
    Wedged { stalled: u64 },
}

/// The per-cycle stop verdict: the watchdog stall counter and the
/// drain-exit test, fed the post-barrier `Progress` sums (identical
/// inputs on every shard, so every shard reaches the same verdict at
/// the same cycle).
pub(super) struct RunWatch {
    watchdog_cycles: Option<u64>,
    end_measure: u64,
    last_delivered: u64,
    stalled: u64,
}

impl RunWatch {
    pub(super) fn new(ctx: &Ctx) -> Self {
        RunWatch {
            watchdog_cycles: ctx.cfg.watchdog_cycles,
            end_measure: ctx.end_measure,
            last_delivered: 0,
            stalled: 0,
        }
    }

    /// Verdict after cycle `now`: `generated`/`ejected`/`faulted` count
    /// measured packets, `delivered` every ejection, `any_active`
    /// whether any router still buffers a packet.
    pub(super) fn verdict(
        &mut self,
        now: u64,
        generated: u64,
        ejected: u64,
        faulted: u64,
        delivered: u64,
        any_active: bool,
    ) -> Option<Exit> {
        // Watchdog: nothing is active whenever nothing is buffered, so a
        // growing stall counter means packets sit while nothing moves.
        if let Some(wd) = self.watchdog_cycles {
            if delivered == self.last_delivered && any_active {
                self.stalled += 1;
                if self.stalled >= wd {
                    return Some(Exit::Wedged {
                        stalled: self.stalled,
                    });
                }
            } else {
                self.stalled = 0;
                self.last_delivered = delivered;
            }
        }
        // In-flight fault drops count as resolved.
        (now + 1 >= self.end_measure && ejected + faulted == generated && !any_active)
            .then_some(Exit::Drained)
    }
}

/// Sense-reversing spin barrier. Waiters spin briefly then yield — the
/// engine must stay live even when threads exceed cores.
pub(super) struct SpinBarrier {
    count: AtomicUsize,
    generation: AtomicUsize,
    total: usize,
}

impl SpinBarrier {
    pub(super) fn new(total: usize) -> Self {
        SpinBarrier {
            count: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            total,
        }
    }

    pub(super) fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
            // Last arriver: reset the count for the next round, then
            // release everyone. The count reset is sequenced before the
            // generation bump, which waiters acquire.
            self.count.store(0, Ordering::Relaxed);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins > 64 {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
    }
}

/// One shard's progress snapshot for the exit decision, padded to a
/// cache line. Cumulative counters — written before the barrier, read
/// by every shard after it.
#[repr(align(64))]
#[derive(Default)]
struct Progress {
    generated: AtomicU64,
    ejected: AtomicU64,
    faulted: AtomicU64,
    delivered: AtomicU64,
    active: AtomicBool,
}

type Mailbox = Mutex<Vec<(u64, Ev)>>;

/// Run the simulation over `ctx.shards()` shards and return the merged
/// statistics and the cycle count. Shard 0 runs on the calling thread
/// and shards 1.. on one spawned thread each, so a one-shard run spawns
/// none: with no other shard it publishes no events, takes no mailbox
/// lock, and its barrier is a counter bump. Each shard reports into a
/// fork of `monitor`, absorbed back in shard order.
pub(super) fn run_sharded<M: SimMonitor>(
    ctx: &Ctx,
    sample_every: Option<u64>,
    monitor: &mut M,
) -> (ShardStats, u64) {
    let s = ctx.shards();
    let barrier = SpinBarrier::new(s);
    // mailboxes[parity][dst][src], progress[parity * s + shard].
    let mailboxes: Vec<Vec<Vec<Mailbox>>> = (0..2)
        .map(|_| {
            (0..s)
                .map(|_| (0..s).map(|_| Mutex::new(Vec::new())).collect())
                .collect()
        })
        .collect();
    let progress: Vec<Progress> = (0..2 * s).map(|_| Progress::default()).collect();

    // One shard's whole run, on whichever thread calls it.
    let run_shard = |id: usize, mon: &mut M| -> (ShardStats, u64) {
        let mut shard = Shard::new(ctx, id);
        let mut scratch: Vec<(u64, Ev)> = Vec::new();
        let mut cycles = ctx.hard_end;
        // Every shard feeds its watch the same post-barrier snapshot, so
        // all shards reach the same verdict at the same cycle.
        let mut watch = RunWatch::new(ctx);
        for now in 0..ctx.hard_end {
            let parity = (now & 1) as usize;
            // 1. Drain events published last cycle. A shard never
            // publishes to itself, so its own mailbox stays empty.
            for (src, inbox) in mailboxes[parity ^ 1][id].iter().enumerate() {
                if src == id {
                    continue;
                }
                {
                    let mut slot = inbox.lock().unwrap();
                    std::mem::swap(&mut *slot, &mut scratch);
                }
                for (at, ev) in scratch.drain(..) {
                    shard.enqueue_local(at, ev);
                }
            }
            // 2. Compute this cycle.
            shard.step(ctx, now, sample_every, mon);
            // 3. Publish outboxes and progress.
            for (dst, row) in mailboxes[parity].iter().enumerate() {
                if dst == id {
                    continue;
                }
                let out = shard.outbox_mut(dst);
                if out.is_empty() {
                    continue;
                }
                let mut slot = row[id].lock().unwrap();
                debug_assert!(slot.is_empty());
                std::mem::swap(&mut *slot, out);
            }
            let p = &progress[parity * s + id];
            p.generated
                .store(shard.stats.measured_generated, Ordering::Relaxed);
            p.ejected
                .store(shard.stats.measured_ejected, Ordering::Relaxed);
            p.faulted
                .store(shard.stats.measured_faulted, Ordering::Relaxed);
            p.delivered
                .store(shard.stats.delivered_total, Ordering::Relaxed);
            p.active.store(!shard.active.is_empty(), Ordering::Relaxed);
            // 4. Everyone sees everyone's publishes.
            barrier.wait();
            let (mut generated, mut ejected, mut faulted) = (0u64, 0u64, 0u64);
            let mut delivered = 0u64;
            let mut any_active = false;
            for p in &progress[parity * s..(parity + 1) * s] {
                generated += p.generated.load(Ordering::Relaxed);
                ejected += p.ejected.load(Ordering::Relaxed);
                faulted += p.faulted.load(Ordering::Relaxed);
                delivered += p.delivered.load(Ordering::Relaxed);
                any_active |= p.active.load(Ordering::Relaxed);
            }
            if let Some(exit) =
                watch.verdict(now, generated, ejected, faulted, delivered, any_active)
            {
                cycles = shard.stop(exit, now, mon);
                break;
            }
        }
        (shard.stats, cycles)
    };

    let mut forks: Vec<M> = (0..s).map(|_| monitor.fork()).collect();
    let results: Vec<(ShardStats, u64)> = std::thread::scope(|scope| {
        let run_shard = &run_shard;
        let (first, rest) = forks.split_first_mut().expect("at least one shard");
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, mon)| scope.spawn(move || run_shard(i + 1, mon)))
            .collect();
        let mut results = vec![run_shard(0, first)];
        results.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked")),
        );
        results
    });

    let mut merged = ShardStats::default();
    let mut cycles = ctx.hard_end;
    for ((stats, c), mon) in results.into_iter().zip(forks) {
        merged.merge(stats);
        monitor.absorb(mon);
        cycles = c;
    }
    (merged, cycles)
}
