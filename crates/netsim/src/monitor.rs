//! Simulator observability: the [`SimMonitor`] hook trait, the zero-cost
//! [`NoopMonitor`], and the allocating [`MetricsMonitor`] /
//! [`MetricsReport`] pair.
//!
//! The engine is generic over its monitor, so the no-op implementation
//! monomorphizes every hook to an empty inline body — the unmonitored
//! `simulate` path pays nothing for this layer. `MetricsMonitor` collects
//! per-port link utilization, coarse-sampled per-VC buffer occupancy,
//! stall-cause counters, injection-backpressure counts, a log-bucketed
//! latency histogram (p50/p99/p999 without storing samples), and a
//! cycle-bucketed delivery series for transient (fault-recovery) curves.

use crate::engine::VCS;
use polarstar_topo::network::NetworkSpec;

/// Why a head-of-line packet failed to advance this cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// The chosen output VC had no downstream credit.
    CreditStarved,
    /// Lost round-robin arbitration to another input VC this cycle.
    VcAllocation,
    /// The output port was still serializing a previous packet.
    Crossbar,
    /// The chosen output port crosses a link a live fault event killed.
    /// Only a stale control plane ([`FaultResponse::Stale`]) keeps
    /// routing packets at dead links, so this counter measures how hard
    /// an unconverged network grinds against physical reality.
    ///
    /// [`FaultResponse::Stale`]: crate::engine::FaultResponse::Stale
    DeadLink,
}

/// Diagnostic snapshot the watchdog takes when it terminates a wedged
/// run: what sat where, for how long, and what starved. In sharded runs
/// every shard snapshots its own routers and the parts merge (sums,
/// element-wise VC sums, max age) in ascending shard order — the result
/// is identical at any thread count.
#[derive(Clone, Debug, PartialEq)]
pub struct WatchdogDiag {
    /// Cycle the watchdog terminated the run at.
    pub fired_at: u64,
    /// Consecutive zero-delivery cycles observed with packets buffered.
    pub stalled_cycles: u64,
    /// Packets stuck in input queues network-wide.
    pub buffered_packets: u64,
    /// Stuck packets per virtual channel (index = VC).
    pub vc_occupancy: Vec<u64>,
    /// (port, VC) credit counters at zero — exhausted downstream buffers.
    pub zero_credit_ports: usize,
    /// Total (port, VC) credit counters, for scale.
    pub total_credit_ports: usize,
    /// Age (cycles since generation) of the oldest buffered packet.
    pub oldest_packet_age: u64,
    /// Sample of routers holding stuck traffic (up to 8 per shard,
    /// ascending router id within each shard).
    pub stuck_routers: Vec<u32>,
}

impl WatchdogDiag {
    /// Fold another shard's snapshot into this one (same firing cycle).
    pub fn merge(&mut self, other: &WatchdogDiag) {
        debug_assert_eq!(self.fired_at, other.fired_at);
        self.stalled_cycles = self.stalled_cycles.max(other.stalled_cycles);
        self.buffered_packets += other.buffered_packets;
        for (a, b) in self.vc_occupancy.iter_mut().zip(&other.vc_occupancy) {
            *a += b;
        }
        self.zero_credit_ports += other.zero_credit_ports;
        self.total_credit_ports += other.total_credit_ports;
        self.oldest_packet_age = self.oldest_packet_age.max(other.oldest_packet_age);
        // Keep the sample at the sequential engine's size (the 8 lowest
        // router ids) so merged shard diags stay bit-identical to it.
        self.stuck_routers.extend_from_slice(&other.stuck_routers);
        self.stuck_routers.sort_unstable();
        self.stuck_routers.truncate(8);
    }
}

/// Engine instrumentation hooks. Every method has an empty default, so a
/// monitor implements only what it needs.
pub trait SimMonitor {
    /// Called once before the first cycle.
    fn on_run_start(&mut self, _spec: &NetworkSpec) {}

    /// If `Some(k)`, the engine scans VC occupancy every `k` cycles and
    /// reports it via [`SimMonitor::on_vc_sample`]. `None` (the default)
    /// skips the scan entirely.
    fn sample_interval(&self) -> Option<u64> {
        None
    }

    /// Network-wide buffered packets in VC `vc` at cycle `now`.
    fn on_vc_sample(&mut self, _now: u64, _vc: usize, _occupied_packets: u64) {}

    /// `flits` flits started traversing network port `port` of `router`.
    fn on_link_flit(&mut self, _router: u32, _port: usize, _flits: u32) {}

    /// A head packet at `router` stalled for `cause`.
    fn on_stall(&mut self, _router: u32, _cause: StallCause) {}

    /// An endpoint on `router` generated a packet its injection buffer
    /// could not accept this cycle.
    fn on_injection_backpressure(&mut self, _router: u32) {}

    /// A packet reached its destination endpoint at cycle `now`.
    fn on_packet_delivered(&mut self, _now: u64, _latency: u64, _hops: u32, _measured: bool) {}

    /// An endpoint on `router` generated a packet the fault-degraded
    /// network cannot route (dead source/destination router or a
    /// disconnected pair); the packet was dropped at injection.
    fn on_unroutable(&mut self, _router: u32) {}

    /// The watchdog terminated a wedged run; `diag` is this shard's
    /// snapshot of the stuck state.
    fn on_watchdog(&mut self, _diag: &WatchdogDiag) {}

    /// Called once after the last cycle.
    fn on_run_end(&mut self, _cycles: u64) {}
}

/// A monitor the sharded engine can split across deterministic worker
/// threads: [`ShardableMonitor::fork`] produces an empty per-shard
/// collector (called once per shard, after `on_run_start` ran on the
/// parent), and [`ShardableMonitor::absorb`] folds a shard's collector
/// back into the parent in ascending shard order at the end of the run.
///
/// `on_run_start` / `on_run_end` fire only on the parent monitor; forks
/// see just the per-event hooks. Because every aggregate a monitor keeps
/// is a sum (or an element-wise sum over fixed index spaces), absorbing
/// shard collectors in a fixed order reproduces the sequential totals
/// bit-for-bit.
pub trait ShardableMonitor: SimMonitor + Send + Sized {
    /// An empty collector sharing this monitor's configuration.
    fn fork(&self) -> Self;

    /// Fold a fork's counters back into this monitor.
    fn absorb(&mut self, shard: Self);
}

/// The do-nothing monitor behind the plain `simulate` path.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopMonitor;

impl SimMonitor for NoopMonitor {}

impl ShardableMonitor for NoopMonitor {
    fn fork(&self) -> Self {
        NoopMonitor
    }
    fn absorb(&mut self, _shard: Self) {}
}

/// Latency histogram over power-of-two buckets: bucket `i` counts
/// latencies in `[2^(i-1), 2^i)` (bucket 0 counts latency 0). Quantiles
/// come back as the geometric midpoint of the containing bucket, so
/// p50/p99/p999 need no stored samples.
#[derive(Clone, Debug)]
pub struct LatencyHistogram {
    buckets: [u64; 64],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LatencyHistogram {
    /// Record one latency observation.
    pub fn record(&mut self, latency: u64) {
        let b = (64 - latency.leading_zeros()) as usize; // floor(log2)+1; 0 → 0
        self.buckets[b.min(63)] += 1;
        self.count += 1;
        self.sum += latency;
        self.max = self.max.max(latency);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (exact — from the running sum, not the buckets).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Fold another histogram into this one (bucket-wise; mean and
    /// quantiles of the merge equal those of the combined sample set).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Approximate quantile `q` in [0, 1]: geometric midpoint of the
    /// bucket containing the q-th observation, clamped to the observed
    /// maximum.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = if b == 0 {
                    0.0
                } else {
                    // Bucket b spans [2^(b-1), 2^b).
                    let lo = (1u64 << (b - 1)) as f64;
                    lo * 1.5
                };
                return mid.min(self.max as f64);
            }
        }
        self.max as f64
    }
}

/// A [`SimMonitor`] that aggregates everything the hooks expose.
#[derive(Clone, Debug)]
pub struct MetricsMonitor {
    sample_every: u64,
    /// Per-router offset into `link_flits` (prefix sums of degrees).
    port_base: Vec<usize>,
    /// Flits sent per directed network port.
    link_flits: Vec<u64>,
    /// Per-VC occupancy time series: `(cycle, buffered packets)`.
    vc_series: Vec<Vec<(u64, u64)>>,
    stall_credit: u64,
    stall_vc: u64,
    stall_crossbar: u64,
    stall_dead_link: u64,
    injection_backpressure: u64,
    unroutable: u64,
    delivered: u64,
    delivered_measured: u64,
    latency: LatencyHistogram,
    hops_sum: u64,
    /// `(deliveries, latency sum)` per `sample_every`-cycle bucket.
    delivery_buckets: Vec<(u64, u64)>,
    cycles: u64,
    watchdog: Option<WatchdogDiag>,
}

impl MetricsMonitor {
    /// Collect metrics, sampling VC occupancy and bucketing deliveries
    /// every `sample_every` cycles (coarse — 64 is a good default; the
    /// VC scan touches every buffer).
    pub fn new(sample_every: u64) -> Self {
        MetricsMonitor {
            sample_every: sample_every.max(1),
            port_base: Vec::new(),
            link_flits: Vec::new(),
            vc_series: Vec::new(),
            stall_credit: 0,
            stall_vc: 0,
            stall_crossbar: 0,
            stall_dead_link: 0,
            injection_backpressure: 0,
            unroutable: 0,
            delivered: 0,
            delivered_measured: 0,
            latency: LatencyHistogram::default(),
            hops_sum: 0,
            delivery_buckets: Vec::new(),
            cycles: 0,
            watchdog: None,
        }
    }

    /// Summarize the run. Call after the simulation returns.
    pub fn report(&self) -> MetricsReport {
        let links = self.link_flits.len();
        let cycles = self.cycles.max(1);
        let util = |flits: u64| flits as f64 / cycles as f64;
        let max_link = self.link_flits.iter().copied().max().unwrap_or(0);
        let total: u64 = self.link_flits.iter().sum();
        let busy_links = self.link_flits.iter().filter(|&&f| f > 0).count();
        let vc_occupancy = self
            .vc_series
            .iter()
            .map(|s| {
                let peak = s.iter().map(|&(_, o)| o).max().unwrap_or(0);
                let mean = if s.is_empty() {
                    0.0
                } else {
                    s.iter().map(|&(_, o)| o).sum::<u64>() as f64 / s.len() as f64
                };
                VcOccupancy {
                    mean,
                    peak,
                    samples: s.len(),
                }
            })
            .collect();
        MetricsReport {
            cycles: self.cycles,
            links,
            busy_links,
            mean_link_utilization: if links == 0 {
                0.0
            } else {
                util(total) / links as f64
            },
            max_link_utilization: util(max_link),
            stall_credit: self.stall_credit,
            stall_vc_alloc: self.stall_vc,
            stall_crossbar: self.stall_crossbar,
            stall_dead_link: self.stall_dead_link,
            injection_backpressure: self.injection_backpressure,
            unroutable: self.unroutable,
            delivered_packets: self.delivered,
            delivered_measured: self.delivered_measured,
            avg_hops: if self.delivered == 0 {
                0.0
            } else {
                self.hops_sum as f64 / self.delivered as f64
            },
            latency_mean: self.latency.mean(),
            latency_p50: self.latency.quantile(0.50),
            latency_p99: self.latency.quantile(0.99),
            latency_p999: self.latency.quantile(0.999),
            vc_occupancy,
            watchdog: self.watchdog.clone(),
        }
    }

    /// Raw per-VC occupancy time series (cycle, buffered packets).
    pub fn vc_series(&self) -> &[Vec<(u64, u64)>] {
        &self.vc_series
    }

    /// `(bucket_start_cycle, delivered, mean_latency)` per
    /// `sample_every`-cycle bucket, in time order — the raw material for
    /// fault-recovery curves (latency spike at a failure burst, decay
    /// after links return). Counts every delivery (warmup, measurement,
    /// drain); empty buckets report a mean latency of 0. Forks merge by
    /// element-wise sums, so the series is identical at any engine
    /// thread count.
    pub fn delivery_series(&self) -> Vec<(u64, u64, f64)> {
        self.delivery_buckets
            .iter()
            .enumerate()
            .map(|(b, &(d, ls))| {
                let mean = if d == 0 { 0.0 } else { ls as f64 / d as f64 };
                (b as u64 * self.sample_every, d, mean)
            })
            .collect()
    }

    /// Flit counts per directed port of `router`.
    pub fn link_flits_of(&self, router: u32) -> &[u64] {
        let r = router as usize;
        &self.link_flits[self.port_base[r]..self.port_base[r + 1]]
    }
}

impl SimMonitor for MetricsMonitor {
    fn on_run_start(&mut self, spec: &NetworkSpec) {
        let n = spec.graph.n();
        self.port_base = Vec::with_capacity(n + 1);
        self.port_base.push(0);
        for r in 0..n as u32 {
            self.port_base
                .push(self.port_base[r as usize] + spec.graph.degree(r));
        }
        self.link_flits = vec![0; self.port_base[n]];
        self.vc_series = vec![Vec::new(); VCS];
    }

    fn sample_interval(&self) -> Option<u64> {
        Some(self.sample_every)
    }

    fn on_vc_sample(&mut self, now: u64, vc: usize, occupied_packets: u64) {
        self.vc_series[vc].push((now, occupied_packets));
    }

    fn on_link_flit(&mut self, router: u32, port: usize, flits: u32) {
        self.link_flits[self.port_base[router as usize] + port] += flits as u64;
    }

    fn on_stall(&mut self, _router: u32, cause: StallCause) {
        match cause {
            StallCause::CreditStarved => self.stall_credit += 1,
            StallCause::VcAllocation => self.stall_vc += 1,
            StallCause::Crossbar => self.stall_crossbar += 1,
            StallCause::DeadLink => self.stall_dead_link += 1,
        }
    }

    fn on_injection_backpressure(&mut self, _router: u32) {
        self.injection_backpressure += 1;
    }

    fn on_packet_delivered(&mut self, now: u64, latency: u64, hops: u32, measured: bool) {
        let b = (now / self.sample_every) as usize;
        if b >= self.delivery_buckets.len() {
            self.delivery_buckets.resize(b + 1, (0, 0));
        }
        self.delivery_buckets[b].0 += 1;
        self.delivery_buckets[b].1 += latency;
        self.delivered += 1;
        self.hops_sum += hops as u64;
        if measured {
            self.delivered_measured += 1;
            self.latency.record(latency);
        }
    }

    fn on_unroutable(&mut self, _router: u32) {
        self.unroutable += 1;
    }

    fn on_watchdog(&mut self, diag: &WatchdogDiag) {
        match &mut self.watchdog {
            Some(d) => d.merge(diag),
            None => self.watchdog = Some(diag.clone()),
        }
    }

    fn on_run_end(&mut self, cycles: u64) {
        self.cycles = cycles;
    }
}

impl ShardableMonitor for MetricsMonitor {
    fn fork(&self) -> Self {
        MetricsMonitor {
            port_base: self.port_base.clone(),
            link_flits: vec![0; self.link_flits.len()],
            vc_series: vec![Vec::new(); self.vc_series.len()],
            ..MetricsMonitor::new(self.sample_every)
        }
    }

    fn absorb(&mut self, shard: Self) {
        assert_eq!(
            self.link_flits.len(),
            shard.link_flits.len(),
            "absorbing a fork of a different topology"
        );
        for (a, b) in self.link_flits.iter_mut().zip(shard.link_flits) {
            *a += b;
        }
        // Every shard samples the same cycles, so the series merge is an
        // element-wise sum of occupancy at identical timestamps.
        for (mine, theirs) in self.vc_series.iter_mut().zip(shard.vc_series) {
            if mine.is_empty() {
                *mine = theirs;
            } else {
                assert_eq!(mine.len(), theirs.len(), "shards sampled different cycles");
                for (m, t) in mine.iter_mut().zip(theirs) {
                    debug_assert_eq!(m.0, t.0);
                    m.1 += t.1;
                }
            }
        }
        self.stall_credit += shard.stall_credit;
        self.stall_vc += shard.stall_vc;
        self.stall_crossbar += shard.stall_crossbar;
        self.stall_dead_link += shard.stall_dead_link;
        self.injection_backpressure += shard.injection_backpressure;
        self.unroutable += shard.unroutable;
        self.delivered += shard.delivered;
        self.delivered_measured += shard.delivered_measured;
        self.latency.merge(&shard.latency);
        self.hops_sum += shard.hops_sum;
        if shard.delivery_buckets.len() > self.delivery_buckets.len() {
            self.delivery_buckets
                .resize(shard.delivery_buckets.len(), (0, 0));
        }
        for (m, t) in self.delivery_buckets.iter_mut().zip(shard.delivery_buckets) {
            m.0 += t.0;
            m.1 += t.1;
        }
        self.cycles = self.cycles.max(shard.cycles);
        if let Some(d) = shard.watchdog {
            match &mut self.watchdog {
                Some(mine) => mine.merge(&d),
                None => self.watchdog = Some(d),
            }
        }
    }
}

/// Aggregate occupancy of one virtual channel across the run.
#[derive(Clone, Debug, PartialEq)]
pub struct VcOccupancy {
    /// Mean buffered packets across samples.
    pub mean: f64,
    /// Peak buffered packets in any sample.
    pub peak: u64,
    /// Number of samples taken.
    pub samples: usize,
}

/// The serializable summary a [`MetricsMonitor`] produces.
///
/// `PartialEq` is exact (including floats): determinism tests compare
/// whole reports across engine-thread counts.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricsReport {
    /// Simulated cycles.
    pub cycles: u64,
    /// Directed network ports in the topology.
    pub links: usize,
    /// Ports that carried at least one flit.
    pub busy_links: usize,
    /// Mean flits per port per cycle.
    pub mean_link_utilization: f64,
    /// Flits per cycle on the busiest port.
    pub max_link_utilization: f64,
    /// Head-packet stalls: no downstream credit.
    pub stall_credit: u64,
    /// Head-packet stalls: lost VC arbitration.
    pub stall_vc_alloc: u64,
    /// Head-packet stalls: output still serializing.
    pub stall_crossbar: u64,
    /// Head-packet stalls: chosen output crosses a dead link (stale
    /// control plane only).
    pub stall_dead_link: u64,
    /// Generated packets that found a full injection buffer.
    pub injection_backpressure: u64,
    /// Generated packets dropped at injection with no surviving path
    /// (fault-degraded networks only; whole run, not just measured).
    pub unroutable: u64,
    /// Packets delivered (warmup + measured + drain).
    pub delivered_packets: u64,
    /// Packets delivered inside the measurement window.
    pub delivered_measured: u64,
    /// Mean hops over all delivered packets.
    pub avg_hops: f64,
    /// Mean latency of measured packets (cycles).
    pub latency_mean: f64,
    /// Approximate median latency.
    pub latency_p50: f64,
    /// Approximate 99th-percentile latency.
    pub latency_p99: f64,
    /// Approximate 99.9th-percentile latency.
    pub latency_p999: f64,
    /// Per-VC occupancy summaries (index = VC).
    pub vc_occupancy: Vec<VcOccupancy>,
    /// Present when the watchdog terminated the run: the merged
    /// diagnostic snapshot of the wedged network.
    pub watchdog: Option<WatchdogDiag>,
}

/// Format a float for JSON: finite values as-is, non-finite as `null`.
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".into()
    }
}

impl MetricsReport {
    /// Hand-rolled JSON (no serde in this workspace).
    pub fn to_json(&self) -> String {
        let vcs: Vec<String> = self
            .vc_occupancy
            .iter()
            .map(|v| {
                format!(
                    "{{\"mean\":{},\"peak\":{},\"samples\":{}}}",
                    json_f64(v.mean),
                    v.peak,
                    v.samples
                )
            })
            .collect();
        let watchdog = match &self.watchdog {
            None => "null".to_string(),
            Some(d) => format!(
                "{{\"fired_at\":{},\"stalled_cycles\":{},\"buffered_packets\":{},\
                 \"vc_occupancy\":[{}],\"zero_credit_ports\":{},\
                 \"total_credit_ports\":{},\"oldest_packet_age\":{},\
                 \"stuck_routers\":[{}]}}",
                d.fired_at,
                d.stalled_cycles,
                d.buffered_packets,
                d.vc_occupancy
                    .iter()
                    .map(|o| o.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
                d.zero_credit_ports,
                d.total_credit_ports,
                d.oldest_packet_age,
                d.stuck_routers
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ),
        };
        format!(
            "{{\"cycles\":{},\"links\":{},\"busy_links\":{},\
             \"mean_link_utilization\":{},\"max_link_utilization\":{},\
             \"stalls\":{{\"credit\":{},\"vc_alloc\":{},\"crossbar\":{},\"dead_link\":{}}},\
             \"injection_backpressure\":{},\"unroutable\":{},\
             \"delivered_packets\":{},\"delivered_measured\":{},\"avg_hops\":{},\
             \"latency\":{{\"mean\":{},\"p50\":{},\"p99\":{},\"p999\":{}}},\
             \"vc_occupancy\":[{}],\"watchdog\":{}}}",
            self.cycles,
            self.links,
            self.busy_links,
            json_f64(self.mean_link_utilization),
            json_f64(self.max_link_utilization),
            self.stall_credit,
            self.stall_vc_alloc,
            self.stall_crossbar,
            self.stall_dead_link,
            self.injection_backpressure,
            self.unroutable,
            self.delivered_packets,
            self.delivered_measured,
            json_f64(self.avg_hops),
            json_f64(self.latency_mean),
            json_f64(self.latency_p50),
            json_f64(self.latency_p99),
            json_f64(self.latency_p999),
            vcs.join(","),
            watchdog
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_data() {
        let mut h = LatencyHistogram::default();
        for lat in 1..=1000u64 {
            h.record(lat);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // Log-bucket quantiles are approximate: within a factor of 2.
        let p50 = h.quantile(0.5);
        assert!((250.0..=1000.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((500.0..=1000.0).contains(&p99), "p99 {p99}");
        assert!(h.quantile(0.999) <= 1000.0);
    }

    #[test]
    fn histogram_empty_and_zero() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        h.record(0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn report_json_shape() {
        let mut m = MetricsMonitor::new(8);
        let spec = polarstar_topo::network::NetworkSpec::uniform(
            "k3",
            polarstar_graph::Graph::complete(3),
            1,
        );
        m.on_run_start(&spec);
        m.on_link_flit(0, 1, 4);
        m.on_stall(0, StallCause::CreditStarved);
        m.on_injection_backpressure(1);
        m.on_vc_sample(8, 0, 3);
        m.on_packet_delivered(20, 12, 2, true);
        m.on_run_end(100);
        let rep = m.report();
        assert_eq!(rep.links, 6); // K3: 3 edges, 6 directed ports
        assert_eq!(rep.busy_links, 1);
        assert_eq!(rep.stall_credit, 1);
        assert_eq!(rep.injection_backpressure, 1);
        assert_eq!(rep.delivered_measured, 1);
        let json = rep.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        for key in [
            "max_link_utilization",
            "stalls",
            "latency",
            "vc_occupancy",
            "p999",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn noop_monitor_has_no_sampling() {
        assert!(NoopMonitor.sample_interval().is_none());
    }

    #[test]
    fn fork_absorb_matches_direct_collection() {
        let spec = polarstar_topo::network::NetworkSpec::uniform(
            "k4",
            polarstar_graph::Graph::complete(4),
            1,
        );
        // Feed the same event stream to one monitor directly and to two
        // forks split by router parity; the absorbed totals must match.
        let events: Vec<(u32, u64)> = (0..40u32).map(|i| (i % 4, (i as u64) % 7)).collect();
        let mut direct = MetricsMonitor::new(8);
        direct.on_run_start(&spec);
        let mut parent = MetricsMonitor::new(8);
        parent.on_run_start(&spec);
        let mut forks = [parent.fork(), parent.fork()];
        for &(r, lat) in &events {
            direct.on_link_flit(r, 0, 4);
            direct.on_stall(r, StallCause::VcAllocation);
            direct.on_packet_delivered(100, lat, 2, true);
            let f = &mut forks[(r % 2) as usize];
            f.on_link_flit(r, 0, 4);
            f.on_stall(r, StallCause::VcAllocation);
            f.on_packet_delivered(100, lat, 2, true);
        }
        for vc in 0..VCS {
            direct.on_vc_sample(8, vc, 6);
            forks[0].on_vc_sample(8, vc, 2);
            forks[1].on_vc_sample(8, vc, 4);
        }
        direct.on_run_end(100);
        parent.on_run_end(100);
        let [f0, f1] = forks;
        parent.absorb(f0);
        parent.absorb(f1);
        assert_eq!(parent.report(), direct.report());
        assert_eq!(parent.link_flits_of(1), direct.link_flits_of(1));
    }

    /// Forks merge the delivery buckets by element-wise sums, so a
    /// sharded run under a live fault burst buckets exactly what the
    /// sequential one does.
    #[test]
    fn delivery_series_is_width_invariant_under_a_live_burst() {
        use crate::engine::{SimConfig, Simulation};
        use crate::routing::{RouteTable, RoutingKind};
        use crate::traffic::Pattern;
        use polarstar_topo::{er::ErGraph, FaultSchedule};
        let spec = NetworkSpec::uniform("er5", ErGraph::new(5).unwrap().graph, 2);
        let table = RouteTable::for_spec(&spec);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 400,
            drain_cycles: 2_500,
            seed: 77,
            fault_schedule: Some(FaultSchedule::random_burst(
                &spec.graph,
                0.12,
                0xFA17,
                350,
                Some(650),
            )),
            ..SimConfig::default()
        };
        let run = |threads| {
            let mut mon = MetricsMonitor::new(50);
            Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform).run_monitored(
                0.4,
                &SimConfig {
                    threads,
                    ..cfg.clone()
                },
                &mut mon,
            );
            mon
        };
        let (sequential, sharded) = (run(None), run(Some(3)));
        let series = sequential.delivery_series();
        assert_eq!(series, sharded.delivery_series());
        let delivered: u64 = series.iter().map(|&(_, d, _)| d).sum();
        assert_eq!(delivered, sequential.report().delivered_packets);
        assert!(delivered > 0);
        assert!(series.iter().all(|&(start, _, _)| start % 50 == 0));
    }
}
