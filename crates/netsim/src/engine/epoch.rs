//! Immutable per-run state: the per-epoch routing views — a route table
//! plus the epoch's [`FaultSet`](polarstar_topo::FaultSet) compiled once
//! into a [`FaultMask`] — and the flat index maps every shard shares.

use super::config::{FaultResponse, SimConfig, SimResult};
use super::packet::ShardStats;
use super::{Simulation, PACKET_FLITS};
use crate::routing::{RouteTable, RoutingKind};
use crate::traffic::ResolvedPattern;
use polarstar_graph::Graph;
use polarstar_topo::fault::FaultMask;
use std::borrow::Cow;

/// One fault epoch as a shard sees it: three table reads while it is
/// the routing view, one compiled fault mask while it is in force.
/// Every routing-state read of the engine goes through the methods
/// below; they are the only route-table reads it makes.
pub(super) struct Epoch<'a> {
    /// First cycle of the epoch.
    start: u64,
    /// The table routing decisions read: the caller's for every epoch
    /// whose mask equals the one that table was assembled under (epoch
    /// 0 of a run on the table's own spec, a recovery back to it), else
    /// a [`RouteTable::remask`] the run owns — pristine CSR and port
    /// numbering retained, only the distance and port layers
    /// reassembled. [`FaultResponse::Stale`] builds none after epoch
    /// 0: its routing view never leaves it.
    table: Cow<'a, RouteTable>,
    /// The epoch's cumulative faults compiled against the graph
    /// (bitless on a pristine network). Packets touching a failed
    /// router at either end are dropped — as unroutable at injection,
    /// as faulted in flight; dead ports carry no traffic in either
    /// response mode.
    mask: FaultMask,
}

impl Epoch<'_> {
    /// Whether the run built this epoch's table (false: the caller's).
    #[cfg(test)]
    pub(super) fn owns_table(&self) -> bool {
        matches!(self.table, Cow::Owned(_))
    }

    /// Minimal output ports at `r` toward `dst` (empty iff `r == dst`
    /// or `dst` is unreachable in this epoch).
    #[inline]
    pub(super) fn min_ports(&self, r: u32, dst: u32) -> &[u8] {
        self.table.min_ports(r, dst)
    }

    #[inline]
    pub(super) fn distance(&self, r: u32, dst: u32) -> u16 {
        self.table.distance(r, dst)
    }

    #[inline]
    pub(super) fn is_reachable(&self, r: u32, dst: u32) -> bool {
        self.table.is_reachable(r, dst)
    }

    #[inline]
    pub(super) fn router_failed(&self, r: u32) -> bool {
        self.mask.router_dead(r)
    }

    /// Whether the link behind CSR slot `slot` ([`Ctx::slot`]) is dead.
    #[inline]
    pub(super) fn port_dead(&self, slot: usize) -> bool {
        self.mask.link_dead(slot as u32)
    }
}

/// Immutable per-run state shared by every shard: the topology, routing
/// state per fault epoch, resolved traffic, config, and the precomputed
/// flat index maps (endpoint prefix sums, reverse-port CSR, shard
/// boundaries).
pub(super) struct Ctx<'a> {
    /// The pristine router graph: neighbors, degrees, and the CSR slots
    /// (port `p` of router `r` is slot `edge_range(r).start + p`) that
    /// port-indexed arrays and every epoch's [`FaultMask`] share.
    pub(super) graph: &'a Graph,
    pub(super) kind: RoutingKind,
    pub(super) pattern: ResolvedPattern,
    /// Endpoints that transmit under the pattern (self-maps are idle).
    pub(super) active_src: Vec<bool>,
    pub(super) active_eps: usize,
    pub(super) load: f64,
    /// Per-endpoint per-cycle generation probability.
    pub(super) p_gen: f64,
    pub(super) cfg: SimConfig,
    /// Reverse port map over the CSR slots: port p of router r leads
    /// to u; back_port[slot(r, p)] = the port of u back to r.
    pub(super) back_port: Vec<u8>,
    /// Global endpoint prefix sums per router (len n + 1).
    pub(super) ep_off: Vec<u32>,
    /// endpoint → (router, slot).
    pub(super) ep_router: Vec<(u32, u16)>,
    /// Fault epochs in start order: cumulative fault sets materialized
    /// up front (epoch 0 = the spec's static mask, starting at cycle 0;
    /// len 1 on a run without live faults), with their route tables
    /// prebuilt so the per-cycle cost of a schedule is one
    /// partition_point over a handful of entries. The epoch in force at
    /// cycle `now` is a pure function of `now`, so every shard switches
    /// at the same barrier with no extra synchronization.
    pub(super) epochs: Vec<Epoch<'a>>,
    pub(super) end_measure: u64,
    pub(super) hard_end: u64,
    /// Contiguous shard boundaries (len shards + 1, starts ascending).
    pub(super) shard_starts: Vec<u32>,
}

impl<'a> Ctx<'a> {
    /// `sim` and `cfg` must have passed [`Simulation::check`].
    pub(super) fn new(
        sim: &Simulation<'a>,
        pattern: ResolvedPattern,
        load: f64,
        cfg: SimConfig,
    ) -> Self {
        let Simulation {
            spec, table, kind, ..
        } = *sim;
        let graph = &spec.graph;
        let n = graph.n();
        let mut back_port = Vec::with_capacity(graph.directed_edge_count());
        for r in 0..n as u32 {
            for &u in graph.neighbors(r) {
                let bp = graph
                    .neighbors(u)
                    .binary_search(&r)
                    .expect("undirected edge");
                back_port.push(bp as u8);
            }
        }
        let ep_off: Vec<u32> = spec.endpoint_offsets().iter().map(|&o| o as u32).collect();
        let total_eps = spec.total_endpoints();
        let ep_router: Vec<(u32, u16)> = (0..total_eps)
            .map(|e| {
                let (r, s) = spec.endpoint_router(e);
                (r, s as u16)
            })
            .collect();
        let active_src: Vec<bool> = match &pattern.dest {
            None => vec![true; total_eps],
            Some(map) => map
                .iter()
                .enumerate()
                .map(|(i, &d)| d != i as u32)
                .collect(),
        };
        let active_eps = active_src.iter().filter(|&&a| a).count();
        let schedule = cfg.fault_schedule.clone().unwrap_or_default();
        let epochs: Vec<Epoch> = schedule
            .epochs(spec.faults())
            .iter()
            .enumerate()
            .map(|(i, (start, faults))| {
                let mask = faults.compile(graph);
                // A stale control plane never routes on a later epoch.
                let unread = i > 0 && cfg.fault_response == FaultResponse::Stale;
                Epoch {
                    start: *start,
                    table: if unread || mask == *table.mask() {
                        Cow::Borrowed(table)
                    } else {
                        Cow::Owned(table.remask(spec, faults))
                    },
                    mask,
                }
            })
            .collect();
        let threads = cfg.threads.unwrap_or(1).clamp(1, n);
        // Contiguous partition balanced by per-router work weight
        // (ports + endpoints + fixed overhead).
        let weights: Vec<u64> = (0..n)
            .map(|r| (graph.degree(r as u32) + (ep_off[r + 1] - ep_off[r]) as usize + 1) as u64)
            .collect();
        let shard_starts = partition_starts(&weights, threads);
        // Saturating: `drain_cycles: u64::MAX` means "drain until empty".
        let end_measure = cfg.warmup_cycles.saturating_add(cfg.measure_cycles);
        Ctx {
            graph,
            kind,
            pattern,
            active_src,
            active_eps,
            load,
            p_gen: load / PACKET_FLITS as f64,
            back_port,
            ep_off,
            ep_router,
            epochs,
            end_measure,
            hard_end: end_measure.saturating_add(cfg.drain_cycles),
            shard_starts,
            cfg,
        }
    }

    pub(super) fn shards(&self) -> usize {
        self.shard_starts.len() - 1
    }

    #[inline]
    pub(super) fn degree(&self, r: u32) -> usize {
        self.graph.degree(r)
    }

    /// The CSR slot of port `port` of router `r`.
    #[inline]
    pub(super) fn slot(&self, r: u32, port: usize) -> usize {
        self.graph.edge_range(r).start as usize + port
    }

    #[inline]
    pub(super) fn endpoints(&self, r: u32) -> usize {
        (self.ep_off[r as usize + 1] - self.ep_off[r as usize]) as usize
    }

    /// Which shard owns router `r` (shards are contiguous ranges).
    #[inline]
    pub(super) fn shard_of(&self, r: u32) -> usize {
        self.shard_starts.partition_point(|&s| s <= r) - 1
    }

    /// Fault epoch in force at cycle `now` — a pure function of the
    /// cycle, so every shard agrees without communicating.
    #[inline]
    pub(super) fn epoch_of(&self, now: u64) -> usize {
        if self.epochs.len() == 1 {
            return 0;
        }
        self.epochs.partition_point(|e| e.start <= now) - 1
    }

    /// Fold merged shard statistics into the run result (identical math
    /// to the original single-threaded engine).
    pub(super) fn finalize(&self, mut stats: ShardStats) -> SimResult {
        let delivered = if stats.measured_generated == 0 {
            1.0
        } else {
            stats.measured_ejected as f64 / stats.measured_generated as f64
        };
        let avg = if stats.measured_ejected == 0 {
            f64::INFINITY
        } else {
            stats.latency_sum as f64 / stats.measured_ejected as f64
        };
        let p99 = if stats.latencies.is_empty() {
            f64::INFINITY
        } else {
            let l = &mut stats.latencies;
            l.sort_unstable();
            l[(l.len() - 1) * 99 / 100] as f64
        };
        let active_eps = self.active_eps.max(1);
        let accepted = stats.ejected_flits_measure as f64
            / (active_eps as f64 * self.cfg.measure_cycles as f64);
        // Steady state: the second half of the measurement window must
        // not show materially higher latency than the first (saturated
        // networks accumulate backlog, so latency grows with time).
        let steady = if stats.half_counts[0] == 0 || stats.half_counts[1] == 0 {
            stats.measured_generated == 0
        } else {
            let a0 = stats.half_sums[0] as f64 / stats.half_counts[0] as f64;
            let a1 = stats.half_sums[1] as f64 / stats.half_counts[1] as f64;
            a1 <= a0 * 1.5 + 4.0 * PACKET_FLITS as f64
        };
        // Throughput criterion: a stable network accepts what is offered
        // (ejected flit rate within 10% of the injection rate).
        let throughput_ok = self.load == 0.0 || accepted >= 0.9 * self.load;
        SimResult {
            offered: self.load,
            accepted,
            avg_latency: avg,
            p99_latency: p99,
            delivered_fraction: delivered,
            stable: delivered >= 0.99 && steady && throughput_ok && !stats.watchdog_fired,
            measured_ejected: stats.measured_ejected,
            avg_hops: if stats.measured_ejected == 0 {
                0.0
            } else {
                stats.hops_sum as f64 / stats.measured_ejected as f64
            },
            unroutable: stats.unroutable,
            faulted_in_flight: stats.faulted_total,
            rerouted: stats.rerouted,
            watchdog_fired: stats.watchdog_fired,
        }
    }
}

/// Contiguous router partition: boundary i is the smallest prefix whose
/// weight reaches `i/s` of the total, nudged so every shard is nonempty.
pub(super) fn partition_starts(weights: &[u64], shards: usize) -> Vec<u32> {
    let n = weights.len();
    let shards = shards.clamp(1, n.max(1));
    let total: u64 = weights.iter().sum::<u64>().max(1);
    let mut starts = Vec::with_capacity(shards + 1);
    starts.push(0u32);
    let mut acc = 0u64;
    let mut r = 0usize;
    for i in 1..shards {
        let target = total * i as u64 / shards as u64;
        while acc < target && r < n {
            acc += weights[r];
            r += 1;
        }
        let prev = *starts.last().unwrap() as usize;
        let start = r.max(prev + 1).min(n - (shards - i));
        starts.push(start as u32);
        r = start;
        acc = weights[..r].iter().sum();
    }
    starts.push(n as u32);
    starts
}
