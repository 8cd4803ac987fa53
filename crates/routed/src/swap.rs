//! Epoch-aware serving: double-buffered oracle swaps that never block
//! queries.
//!
//! The swapper holds the *current* [`Oracle`] behind an `RwLock<Arc<…>>`
//! used arc-swap style: readers take the lock only long enough to clone
//! the [`Arc`] (no allocation, two atomic ops), then answer every query
//! of their batch against that immutable snapshot — so a query can never
//! observe a half-written table, only the epoch that was current when
//! its batch started. The expensive part of an epoch switch (re-masking
//! the route table: a 64-destination block BFS, a few milliseconds at
//! 1 064 routers, nothing when the epoch recovers to the base table's
//! mask) happens *outside* the lock,
//! typically on a dedicated churn thread ([`EpochSwapper::prepare`] →
//! [`EpochSwapper::install`]).

use crate::oracle::Oracle;
use polarstar_topo::fault::{FaultSchedule, FaultSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Double-buffered epoch switcher over a serving [`Oracle`].
pub struct EpochSwapper {
    /// The immutable base snapshot every epoch re-masks from (its
    /// pristine graph is what `RouteTable::remask` reuses).
    base: Arc<Oracle>,
    /// The snapshot queries are answered against right now.
    current: RwLock<Arc<Oracle>>,
    /// Completed installs (monotone; 0 until the first swap).
    swaps: AtomicU64,
}

impl EpochSwapper {
    /// Start serving from a base oracle (epoch 0).
    pub fn new(base: Oracle) -> Self {
        let base = Arc::new(base);
        EpochSwapper {
            current: RwLock::new(Arc::clone(&base)),
            base,
            swaps: AtomicU64::new(0),
        }
    }

    /// The base (epoch-0) snapshot.
    pub fn base(&self) -> &Arc<Oracle> {
        &self.base
    }

    /// Snapshot the current oracle. O(1): clones the `Arc` under a read
    /// lock held for two atomic operations. Answer whole batches against
    /// one snapshot for per-batch epoch consistency.
    pub fn load(&self) -> Arc<Oracle> {
        Arc::clone(&self.current.read().expect("swapper lock poisoned"))
    }

    /// Build the masked oracle for one cumulative fault set — the slow
    /// half of a swap (unless the set compiles to the base's own mask),
    /// run it off the serving threads.
    pub fn prepare(&self, faults: &FaultSet, epoch: u64) -> Oracle {
        self.base.remask(faults, epoch)
    }

    /// Atomically publish a prepared oracle (the fast half of a swap).
    pub fn install(&self, oracle: Oracle) {
        *self.current.write().expect("swapper lock poisoned") = Arc::new(oracle);
        self.swaps.fetch_add(1, Ordering::Release);
    }

    /// Prepare + install in one call (blocking the *caller*, never the
    /// query threads, for the table rebuild).
    pub fn advance(&self, faults: &FaultSet, epoch: u64) {
        let next = self.prepare(faults, epoch);
        self.install(next);
    }

    /// Completed installs so far.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Acquire)
    }

    /// Materialize a fault schedule's cumulative epochs (over the base
    /// spec's static mask) and install each in order. Skips the epoch-0
    /// entry — the base oracle already serves it. Returns the number of
    /// epochs installed. Run on a churn thread while other threads
    /// query; [`FaultSchedule::epochs`] cycle stamps become oracle epoch
    /// ids.
    pub fn serve_schedule(&self, schedule: &FaultSchedule) -> u64 {
        let epochs = schedule.epochs(self.base.spec().faults());
        let mut installed = 0;
        for (cycle, faults) in epochs.into_iter().skip(1) {
            self.advance(&faults, cycle);
            installed += 1;
        }
        installed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::QueryBatch;
    use polarstar_graph::Graph;
    use polarstar_topo::network::NetworkSpec;
    use polarstar_topo::oracle::PathOracle;

    fn swapper() -> EpochSwapper {
        let spec = NetworkSpec::uniform("c6", Graph::cycle(6), 1);
        EpochSwapper::new(Oracle::new(Arc::new(spec)))
    }

    #[test]
    fn snapshots_outlive_installs() {
        let s = swapper();
        let before = s.load();
        assert_eq!(before.epoch(), 0);
        s.advance(&FaultSet::from_links([(0, 1)]), 7);
        // The old snapshot still answers with its own (pristine) table.
        assert_eq!(PathOracle::distance(&*before, 0, 1), Ok(1));
        let after = s.load();
        assert_eq!(after.epoch(), 7);
        assert_eq!(PathOracle::distance(&*after, 0, 1), Ok(5));
        assert_eq!(s.swap_count(), 1);
        assert_eq!(s.base().epoch(), 0, "base never swaps");
    }

    #[test]
    fn schedule_epochs_install_in_order() {
        let s = swapper();
        let sched = FaultSchedule::new()
            .fail_link_at(100, 0, 1)
            .recover_link_at(300, 0, 1);
        assert_eq!(s.serve_schedule(&sched), 2);
        assert_eq!(s.swap_count(), 2);
        let last = s.load();
        assert_eq!(last.epoch(), 300);
        assert_eq!(PathOracle::distance(&*last, 0, 1), Ok(1), "recovered");
    }

    #[test]
    fn concurrent_queries_never_see_torn_tables() {
        let s = swapper();
        let cut = FaultSet::from_links([(0, 1)]);
        let batch = QueryBatch::random(64, 6, 2, 42);
        std::thread::scope(|scope| {
            let churn = scope.spawn(|| {
                for i in 1..=50u64 {
                    let f = if i % 2 == 0 {
                        FaultSet::empty()
                    } else {
                        cut.clone()
                    };
                    s.advance(&f, i);
                }
            });
            for _ in 0..200 {
                let snap = s.load();
                let answers = snap.answer_batch(&batch);
                // Every answer of a batch comes from ONE snapshot: its
                // epoch matches the snapshot and the 0→1 distance is the
                // pristine 1 or the rerouted 5 — never a mix or a tear.
                let cut_active = snap.epoch() % 2 == 1;
                for a in &answers {
                    assert_eq!(a.epoch, snap.epoch());
                    if (a.src, a.dst) == (0, 1) {
                        assert_eq!(a.distance, Some(if cut_active { 5 } else { 1 }));
                    }
                }
            }
            churn.join().unwrap();
        });
        assert_eq!(s.swap_count(), 50);
    }
}
