//! Link-contention network model for motif simulation.
//!
//! Time is tracked in integer picoseconds so events order totally and
//! deterministically. Each directed router-to-router link is a resource
//! with a `free_at` horizon: a message reserves `size / bandwidth` of
//! serialization on every link of its path, while its head advances with
//! per-hop router + link latency (virtual cut-through).

use polarstar_graph::traversal::sweep_block;
use polarstar_graph::Graph;
use polarstar_topo::fault::{FaultMask, FaultSet};
use polarstar_topo::network::NetworkSpec;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;
use std::sync::OnceLock;

/// Picoseconds.
pub type Time = u64;

/// Networks this large are not routed: the port masks grow as
/// `⌈max degree / 8⌉ · 64 · n · ⌈n/64⌉` bytes, 8 GiB once every router
/// of a 65 535-router degree-16 network has been a destination.
const ROUTER_LIMIT: usize = u16::MAX as usize;

/// Why a motif-level message or collective could not be modeled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MotifError {
    /// No surviving path connects the two routers — the pair is
    /// disconnected outright or a fault mask severed/killed one end.
    Disconnected {
        /// Source router.
        src: u32,
        /// Destination router.
        dst: u32,
        /// The collective that hit the dead pair (tagged at the motif
        /// boundary via [`MotifError::with_motif`]); `None` for raw
        /// point-to-point sends.
        motif: Option<&'static str>,
    },
    /// The collective's parameters don't fit the network (too few
    /// ranks, oversized process grid, ...).
    InvalidConfig {
        /// Human-readable description of the rejected configuration.
        reason: String,
    },
}

impl MotifError {
    /// Shorthand constructor for [`MotifError::InvalidConfig`].
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        MotifError::InvalidConfig {
            reason: reason.into(),
        }
    }

    /// Tag a [`MotifError::Disconnected`] with the collective it
    /// surfaced from, so fault-run diagnostics name the motif and not
    /// just the dead pair. Keeps an existing tag (the innermost motif
    /// wins) and passes other variants through.
    pub fn with_motif(self, name: &'static str) -> Self {
        match self {
            MotifError::Disconnected {
                src,
                dst,
                motif: None,
            } => MotifError::Disconnected {
                src,
                dst,
                motif: Some(name),
            },
            other => other,
        }
    }

    /// The motif tag of a [`MotifError::Disconnected`], if any.
    pub fn motif(&self) -> Option<&'static str> {
        match self {
            MotifError::Disconnected { motif, .. } => *motif,
            MotifError::InvalidConfig { .. } => None,
        }
    }
}

impl fmt::Display for MotifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MotifError::Disconnected { src, dst, motif } => {
                write!(f, "no surviving path from router {src} to router {dst}")?;
                if let Some(name) = motif {
                    write!(f, " (in {name})")?;
                }
                Ok(())
            }
            MotifError::InvalidConfig { reason } => {
                write!(f, "invalid motif configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for MotifError {}

/// Convert nanoseconds to the internal picosecond clock.
pub fn ns(x: f64) -> Time {
    (x * 1000.0).round() as Time
}

/// §10.1 simulation parameters.
#[derive(Clone, Debug)]
pub struct MotifConfig {
    /// Router traversal latency (ns). Paper: 20 ns.
    pub router_latency_ns: f64,
    /// Link traversal latency (ns). Paper: 20 ns.
    pub link_latency_ns: f64,
    /// Link bandwidth (bytes/ns = GB/s). Paper: 4 GB/s.
    pub bandwidth_bytes_per_ns: f64,
    /// Fixed software/NIC overhead per message (ns).
    pub overhead_ns: f64,
    /// RNG seed for adaptive path sampling.
    pub seed: u64,
}

impl Default for MotifConfig {
    fn default() -> Self {
        MotifConfig {
            router_latency_ns: 20.0,
            link_latency_ns: 20.0,
            bandwidth_bytes_per_ns: 4.0,
            overhead_ns: 100.0,
            seed: 0xE38E,
        }
    }
}

/// Path selection policy for motif messages.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutingMode {
    /// Deterministic shortest path.
    Min,
    /// Best of {minimal path} ∪ {k paths via random intermediates},
    /// judged by predicted completion under current reservations.
    Adaptive {
        /// Number of Valiant candidates (the paper's UGAL samples 4).
        candidates: usize,
    },
}

impl RoutingMode {
    /// Label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingMode::Min => "MIN",
            RoutingMode::Adaptive { .. } => "UGAL",
        }
    }
}

/// The contention-aware network model.
///
/// All hot-path state is dense and indexed by the spec graph's
/// directed edge ids ([`Graph::edge_id`]): paths are runs of edge ids
/// in buffers the model reuses, link reservations live in flat arrays,
/// each hop is read off one minimal-port mask of the router it leaves
/// — no hash maps, no allocation from `send_routers` to `reserve`.
pub struct NetModel {
    /// All the routing state: one minimal-port mask per (router,
    /// destination) under the spec's static fault mask, swept a block
    /// of 64 destinations at a time on first use — a private cache, not
    /// a route backend: faults that change over time are a
    /// [`FaultEpochs`](crate::FaultEpochs) timeline the striped
    /// collectives lay over the model.
    ports: PortMasks,
    /// The path a message will reserve and the detour being weighed
    /// against it, reused across messages.
    paths: [Vec<u32>; 2],
    /// free_at per directed edge id.
    free_at: Vec<Time>,
    /// Cumulative serialization time reserved per directed edge id.
    link_busy: Vec<Time>,
    /// Messages that crossed each directed edge id.
    link_msgs: Vec<u64>,
    /// Routing runs on `spec.graph` (pristine) under `mask`, so
    /// directed edge ids are the pristine CSR slots.
    spec: NetworkSpec,
    /// `spec.faults()` compiled against `spec.graph`, once.
    mask: FaultMask,
    cfg: MotifConfig,
    rng: ChaCha8Rng,
}

/// Aggregate link-load summary over one simulated interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkLoadReport {
    /// Directed links that carried at least one message.
    pub links_used: usize,
    /// Total messages summed over links (a k-hop message counts k times).
    pub messages: u64,
    /// Mean busy fraction over USED links for `horizon` of wall time.
    pub mean_utilization: f64,
    /// Busy fraction of the single most loaded link.
    pub max_utilization: f64,
}

/// One entry of the per-edge hotlist: a directed link and its load.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkHotEntry {
    /// Source router of the directed link.
    pub src: u32,
    /// Destination router of the directed link.
    pub dst: u32,
    /// Busy fraction over the report horizon, clamped to 1.
    pub utilization: f64,
    /// Messages that crossed the link.
    pub messages: u64,
}

impl NetModel {
    /// Build a model over a network.
    pub fn new(spec: NetworkSpec, cfg: MotifConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let edges = spec.graph.directed_edge_count();
        NetModel {
            ports: PortMasks::new(&spec.graph),
            paths: Default::default(),
            free_at: vec![0; edges],
            link_busy: vec![0; edges],
            link_msgs: vec![0; edges],
            mask: spec.faults().compile(&spec.graph),
            spec,
            cfg,
            rng,
        }
    }

    /// The underlying network.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// Back to the idle network [`NetModel::new`] built — reservations
    /// and load accounting cleared, the path RNG reseeded — so what
    /// follows repeats on a fresh model. Port masks stay: their fault
    /// mask does.
    pub fn reset(&mut self) {
        self.free_at.fill(0);
        self.link_busy.fill(0);
        self.link_msgs.fill(0);
        self.rng = ChaCha8Rng::seed_from_u64(self.cfg.seed);
    }

    /// Bytes of port masks swept so far — all the routing state the
    /// model holds: `⌈max degree / 8⌉ · 64 · n` per swept block, so
    /// `⌈max degree / 8⌉ · 64 · n · ⌈n/64⌉` once every router has been a
    /// destination — `8 · directed links · ⌈n/64⌉` on a degree-32
    /// regular network.
    pub fn port_mask_bytes(&self) -> usize {
        let swept = self.ports.blocks.iter().filter_map(OnceLock::get);
        swept.map(|block| block.len()).sum()
    }

    /// The static fault mask routing applies (the spec's).
    pub fn faults(&self) -> &FaultSet {
        self.spec.faults()
    }

    /// Cumulative serialization reserved on a directed link so far (0
    /// for a pair that is no link, router ids outside the network too).
    pub fn link_busy_time(&self, u: u32, v: u32) -> Time {
        let e = self
            .check_routers(u, v)
            .ok()
            .and_then(|()| self.spec.graph.edge_id(u, v));
        e.map_or(0, |e| self.link_busy[e as usize])
    }

    /// Expand a path of directed edge ids (as returned by
    /// [`NetModel::min_path`]/[`NetModel::ecmp_path`]) into router
    /// pairs.
    pub fn path_links(&self, path: &[u32]) -> Vec<(u32, u32)> {
        path.iter()
            .map(|&e| self.spec.graph.edge_endpoints(e))
            .collect()
    }

    /// Summarize link load relative to a wall-clock `horizon` (e.g. the
    /// motif's completion time). Utilization is busy-time / horizon,
    /// clamped to 1 per link.
    pub fn link_report(&self, horizon: Time) -> LinkLoadReport {
        let links_used = self.link_msgs.iter().filter(|&&m| m > 0).count();
        let messages = self.link_msgs.iter().sum();
        if links_used == 0 || horizon == 0 {
            return LinkLoadReport {
                links_used,
                messages,
                mean_utilization: 0.0,
                max_utilization: 0.0,
            };
        }
        let mut sum = 0.0;
        let mut max = 0.0f64;
        for (&busy, &msgs) in self.link_busy.iter().zip(&self.link_msgs) {
            if msgs == 0 {
                continue;
            }
            let u = (busy as f64 / horizon as f64).min(1.0);
            sum += u;
            max = max.max(u);
        }
        LinkLoadReport {
            links_used,
            messages,
            mean_utilization: sum / links_used as f64,
            max_utilization: max,
        }
    }

    /// The `k` most loaded directed links at `horizon`, hottest first
    /// (ties broken on edge id, so the list is deterministic). Only
    /// links that carried at least one message appear.
    pub fn link_hotlist(&self, horizon: Time, k: usize) -> Vec<LinkHotEntry> {
        let mut used: Vec<u32> = (0..self.link_msgs.len() as u32)
            .filter(|&e| self.link_msgs[e as usize] > 0)
            .collect();
        used.sort_by_key(|&e| (std::cmp::Reverse(self.link_busy[e as usize]), e));
        used.truncate(k);
        used.into_iter()
            .map(|e| {
                let (src, dst) = self.spec.graph.edge_endpoints(e);
                let busy = self.link_busy[e as usize];
                LinkHotEntry {
                    src,
                    dst,
                    utilization: if horizon == 0 {
                        0.0
                    } else {
                        (busy as f64 / horizon as f64).min(1.0)
                    },
                    messages: self.link_msgs[e as usize],
                }
            })
            .collect()
    }

    /// Reject router ids outside the network.
    fn check_routers(&self, a: u32, b: u32) -> Result<(), MotifError> {
        let (n, r) = (self.spec.graph.n() as u32, a.max(b));
        if r < n {
            return Ok(());
        }
        let reason = format!("router {r} outside a {n}-router network");
        Err(MotifError::InvalidConfig { reason })
    }

    /// Append a minimal path `src → dst` to `path` as directed edge ids
    /// down `dst`'s port masks (its block swept on first use). A hop
    /// reads the one mask of (`cur`, `dst`): its `k` set bits are `cur`'s
    /// minimal ports, in ascending CSR order, and it takes the `pick(k)`-th
    /// of `k > 1`. `false`, `path` then unspecified, when no surviving
    /// path connects the pair, an id names no router or the network
    /// reaches `ROUTER_LIMIT`. Not a method, so `ecmp_into` can lend
    /// `self.rng`.
    fn walk(
        ports: &PortMasks,
        graph: &Graph,
        mask: &FaultMask,
        (src, dst): (u32, u32),
        mut pick: impl FnMut(usize) -> usize,
        path: &mut Vec<u32>,
    ) -> bool {
        let n = graph.n();
        if src.max(dst) as usize >= n || n >= ROUTER_LIMIT {
            return false;
        }
        let (block, width) = (ports.block(graph, mask, dst & !63), ports.width);
        let row = &block[(dst & 63) as usize * n * width..][..n * width];
        let mut cur = src;
        while cur != dst {
            let minimal = &row[cur as usize * width..][..width];
            let k = port_words(minimal).map(ones).sum();
            if k == 0 {
                return false;
            }
            let j = if k > 1 { pick(k) } else { 0 };
            let e = graph.edge_range(cur).start + nth_port(minimal, j);
            path.push(e);
            cur = graph.edge_target(e);
        }
        true
    }

    /// [`NetModel::walk`] drawing every choice uniformly from `self.rng`.
    fn ecmp_into(&mut self, src: u32, dst: u32, path: &mut Vec<u32>) -> bool {
        let (rng, graph) = (&mut self.rng, &self.spec.graph);
        let pick = |k| rng.gen_range(0..k);
        Self::walk(&self.ports, graph, &self.mask, (src, dst), pick, path)
    }

    /// The deterministic minimal router path `src → dst` (first ECMP
    /// choice at every hop) as directed edge ids; see
    /// [`NetModel::ecmp_path`] for `None`.
    pub fn min_path(&self, src: u32, dst: u32) -> Option<Vec<u32>> {
        let (graph, mut path) = (&self.spec.graph, Vec::new());
        let found = Self::walk(&self.ports, graph, &self.mask, (src, dst), |_| 0, &mut path);
        found.then_some(path)
    }

    /// A uniformly random minimal path (ECMP) — what "MIN" means in the
    /// paper's simulators, which store or enumerate all minimal paths.
    /// `None` when no surviving path connects the pair, an id names no
    /// router, or the network is too large to route.
    pub fn ecmp_path(&mut self, src: u32, dst: u32) -> Option<Vec<u32>> {
        let mut path = Vec::new();
        self.ecmp_into(src, dst, &mut path).then_some(path)
    }

    /// The clock terms of a `bytes`-sized message, rounded once per send.
    fn cost(&self, bytes: u64) -> SendCost {
        SendCost {
            overhead: ns(self.cfg.overhead_ns),
            per_hop: ns(self.cfg.router_latency_ns + self.cfg.link_latency_ns),
            serial: ns(bytes as f64 / self.cfg.bandwidth_bytes_per_ns),
        }
    }

    /// Predicted completion of a message of `cost` along `path`
    /// (directed edge ids) starting at `start` — without reserving.
    fn predict_with(&self, path: &[u32], cost: SendCost, start: Time) -> Time {
        let mut head = start + cost.overhead;
        let mut done = head;
        for &e in path {
            let begin = head.max(self.free_at[e as usize]);
            head = begin + cost.per_hop;
            done = begin + cost.per_hop + cost.serial;
        }
        done
    }

    /// Reserve `path` (directed edge ids) for a message of `cost`
    /// starting at `start`; returns delivery time.
    fn reserve(&mut self, path: &[u32], cost: SendCost, start: Time) -> Time {
        let mut head = start + cost.overhead;
        let mut done = head;
        for &e in path {
            let e = e as usize;
            let begin = head.max(self.free_at[e]);
            self.free_at[e] = begin + cost.serial;
            self.link_busy[e] += cost.serial;
            self.link_msgs[e] += 1;
            head = begin + cost.per_hop;
            done = begin + cost.per_hop + cost.serial;
        }
        done
    }

    /// Send a message between ROUTERS at `start`; returns delivery time,
    /// [`MotifError::Disconnected`] when the (possibly fault-degraded)
    /// network offers no path, or [`MotifError::InvalidConfig`] for a
    /// router id outside the network or one of 65 535 routers or more.
    pub fn send_routers(
        &mut self,
        src: u32,
        dst: u32,
        bytes: u64,
        start: Time,
        mode: RoutingMode,
    ) -> Result<Time, MotifError> {
        let disconnected = MotifError::Disconnected {
            src,
            dst,
            motif: None,
        };
        self.check_routers(src, dst)?;
        let n = self.spec.graph.n();
        if n >= ROUTER_LIMIT {
            let reason = format!("{n} routers, routing needs fewer than {ROUTER_LIMIT}");
            return Err(MotifError::InvalidConfig { reason });
        }
        if self.mask.router_dead(src) || self.mask.router_dead(dst) {
            return Err(disconnected);
        }
        if src == dst {
            // Loopback through the local router only.
            return Ok(start + ns(self.cfg.overhead_ns + self.cfg.router_latency_ns));
        }
        let [mut best, mut cand] = std::mem::take(&mut self.paths);
        best.clear();
        let cost = self.cost(bytes);
        let routed = self.ecmp_into(src, dst, &mut best);
        if let (true, RoutingMode::Adaptive { candidates }) = (routed, mode) {
            let mut best_t = self.predict_with(&best, cost, start);
            for _ in 0..candidates {
                // Resample (bounded: five draws) instead of burning the
                // candidate when a draw lands on an endpoint of the pair.
                let mut draws = (0..5).map(|_| self.rng.gen_range(0..n as u32));
                let Some(mid) = draws.find(|&mid| mid != src && mid != dst) else {
                    continue;
                };
                // Unreachable intermediates (fault-degraded) are
                // skipped, not fatal — the minimal path stands.
                cand.clear();
                if !(self.ecmp_into(src, mid, &mut cand) && self.ecmp_into(mid, dst, &mut cand)) {
                    continue;
                }
                // The spliced detour may pass through dst on its way
                // to mid; cut it there so it never reserves links
                // beyond the destination.
                let graph = &self.spec.graph;
                if let Some(pos) = cand.iter().position(|&e| graph.edge_target(e) == dst) {
                    cand.truncate(pos + 1);
                }
                let t = self.predict_with(&cand, cost, start);
                if t < best_t {
                    best_t = t;
                    std::mem::swap(&mut best, &mut cand);
                }
            }
        }
        let done = routed.then(|| self.reserve(&best, cost, start));
        self.paths = [best, cand];
        done.ok_or(disconnected)
    }

    /// Send `bytes` across the single directed link `u → v` at `start`;
    /// returns delivery time. The primitive for tree-structured
    /// collectives whose edges the caller chose (EDST striping): no
    /// path search, just the link reservation plus per-hop latency.
    /// Errs with [`MotifError::Disconnected`] when `{u, v}` is not an
    /// edge of the pristine graph or is currently failed, and with
    /// [`MotifError::InvalidConfig`] for a router id outside it.
    pub fn send_link(
        &mut self,
        u: u32,
        v: u32,
        bytes: u64,
        start: Time,
    ) -> Result<Time, MotifError> {
        let disconnected = MotifError::Disconnected {
            src: u,
            dst: v,
            motif: None,
        };
        self.check_routers(u, v)?;
        match self.spec.graph.edge_id(u, v) {
            Some(e) if !self.mask.edge_dead(e) => Ok(self.reserve(&[e], self.cost(bytes), start)),
            _ => Err(disconnected),
        }
    }

    /// Send between ENDPOINTS (ranks map linearly onto endpoints, §10.1);
    /// an endpoint id outside the network is [`MotifError::InvalidConfig`].
    pub fn send_endpoints(
        &mut self,
        src_ep: u32,
        dst_ep: u32,
        bytes: u64,
        start: Time,
        mode: RoutingMode,
    ) -> Result<Time, MotifError> {
        let (ep, offsets) = (src_ep.max(dst_ep), self.spec.endpoint_offsets());
        let total = offsets[offsets.len() - 1];
        if ep as usize >= total {
            let reason = format!("endpoint {ep} outside a network of {total} endpoints");
            return Err(MotifError::InvalidConfig { reason });
        }
        let (sr, _) = self.spec.endpoint_router(src_ep as usize);
        let (dr, _) = self.spec.endpoint_router(dst_ep as usize);
        self.send_routers(sr, dr, bytes, start, mode)
    }

    /// How long a sender's NIC stays busy injecting a `bytes`-sized
    /// message: fixed per-message overhead plus wire serialization. Used
    /// by the collectives to gate a rank's next send.
    pub fn sender_busy(&self, bytes: u64) -> Time {
        let cost = self.cost(bytes);
        cost.overhead + cost.serial
    }

    /// The timing parameters this model runs with.
    pub fn config(&self) -> &MotifConfig {
        &self.cfg
    }
}

/// What one message pays on the picosecond clock ([`ns`] of the
/// [`MotifConfig`] terms): once at injection, per hop, and per link
/// for serialization.
#[derive(Clone, Copy)]
struct SendCost {
    overhead: Time,
    per_hop: Time,
    serial: Time,
}

/// The routing state of a [`NetModel`]: per block of 64 consecutive
/// destinations, one `width`-byte mask per (destination, router), the
/// block's `64 · n` masks destination-major — the mask of (`v`, `64·b +
/// i`) starts at byte `(i·n + v) · width` of block `b`. Bit `p` of it
/// (byte `p / 8`, bit `p % 8`) says "port `p` of `v`, CSR slot
/// `edge_range(v).start + p`, is a minimal next hop toward `64·b + i`"
/// under the model's static fault mask — `column_next_hops` over
/// `masked_distance_column` (`topo::oracle`), for 64 destinations in one
/// sweep. `OnceLock` so [`NetModel::min_path`] can populate a block
/// through `&self`.
struct PortMasks {
    /// Bytes of one mask: ⌈max degree / 8⌉.
    width: usize,
    blocks: Vec<OnceLock<Box<[u8]>>>,
}

impl PortMasks {
    fn new(graph: &Graph) -> Self {
        let blocks = graph.n().div_ceil(64);
        PortMasks {
            width: graph.max_degree().div_ceil(8),
            blocks: (0..blocks).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The masks toward destinations `first ..` (`first` a multiple of
    /// 64), filled on first use by one [`sweep_block`] over the cables
    /// `mask` leaves: when `v` is first reached by the destination bits
    /// `fresh`, each live port `p` to `u` takes bit `p` for `fresh & prev[u]`.
    fn block(&self, graph: &Graph, mask: &FaultMask, first: u32) -> &[u8] {
        self.blocks[first as usize / 64].get_or_init(|| {
            let (width, row) = (self.width, graph.n() * self.width);
            let mut masks = vec![0u8; 64 * row];
            let dsts: Vec<u32> = (first..graph.n() as u32).take(64).collect();
            let live = |_, e, _| !mask.edge_dead(e);
            sweep_block(graph, &dsts, &[], u32::MAX, live, |_, v, fresh, prev| {
                let slots = graph.edge_range(v).zip(graph.neighbors(v));
                for (p, (e, &u)) in slots.enumerate() {
                    let mut hops = fresh & prev[u as usize];
                    if hops == 0 || mask.link_dead(e) {
                        continue;
                    }
                    // Port p's byte in v's mask of the block's first row.
                    let (port, bit) = (&mut masks[v as usize * width + p / 8..], 1 << (p % 8));
                    while hops != 0 {
                        port[hops.trailing_zeros() as usize * row] |= bit;
                        hops &= hops - 1;
                    }
                }
            });
            masks.into_boxed_slice()
        })
    }
}

/// A mask as 64-port words: bit `p` of word `c` is port `64·c + p`.
fn port_words(mask: &[u8]) -> impl Iterator<Item = u64> + '_ {
    let word = |bytes: &[u8]| bytes.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
    mask.chunks(8).map(word)
}

/// Set bits of a port word, without counting when there are at most
/// one (84 % of the hops of PS-IQ's UGAL allreduce have one port).
fn ones(word: u64) -> usize {
    if word & word.wrapping_sub(1) == 0 {
        usize::from(word != 0)
    } else {
        word.count_ones() as usize
    }
}

/// The port of the `j`-th set bit of a mask.
///
/// # Panics
/// If the mask has `j` set bits or fewer.
fn nth_port(mask: &[u8], mut j: usize) -> u32 {
    for (c, mut word) in port_words(mask).enumerate() {
        while word != 0 && j > 0 {
            word &= word - 1;
            j -= 1;
        }
        if word != 0 {
            return 64 * c as u32 + word.trailing_zeros();
        }
    }
    panic!("pick(k) draws below k")
}

#[cfg(test)]
impl NetModel {
    /// [`NetModel::predict_with`] for a `bytes`-sized message.
    fn predict(&self, path: &[u32], bytes: u64, start: Time) -> Time {
        self.predict_with(path, self.cost(bytes), start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;
    use polarstar_topo::oracle::{column_next_hops, masked_distance_column};
    use proptest::prelude::*;

    fn model() -> NetModel {
        let spec = NetworkSpec::uniform("path4", Graph::path(4), 1);
        NetModel::new(spec, MotifConfig::default())
    }

    #[test]
    fn min_path_follows_bfs() {
        let m = model();
        let p = m.min_path(0, 3).unwrap();
        assert_eq!(m.path_links(&p), vec![(0, 1), (1, 2), (2, 3)]);
        assert!(m.min_path(2, 2).unwrap().is_empty());
    }

    #[test]
    fn uncontended_latency_formula() {
        let mut m = model();
        // 4000-byte message over 1 hop at 4 B/ns: serial 1000 ns,
        // overhead 100, per-hop 40 → 1140 ns.
        let t = m.send_routers(0, 1, 4000, 0, RoutingMode::Min).unwrap();
        assert_eq!(t, ns(100.0 + 40.0 + 1000.0));
    }

    #[test]
    fn serialization_contention() {
        let mut m = model();
        // Two messages over the same link back-to-back: second waits.
        let t1 = m.send_routers(0, 1, 4000, 0, RoutingMode::Min).unwrap();
        let t2 = m.send_routers(0, 1, 4000, 0, RoutingMode::Min).unwrap();
        assert!(t2 >= t1 + ns(1000.0) - ns(40.0), "t1={t1} t2={t2}");
    }

    #[test]
    fn pipelining_not_store_and_forward() {
        let mut m = model();
        // 3-hop path: cut-through = overhead + 3·perhop + serial; SAF
        // would pay serial 3×.
        let t = m.send_routers(0, 3, 40_000, 0, RoutingMode::Min).unwrap();
        let serial = 10_000.0;
        let expect = ns(100.0 + 3.0 * 40.0 + serial);
        assert_eq!(t, expect);
    }

    #[test]
    fn adaptive_diverts_under_contention() {
        // Square: two routes from 0 to 2. Saturate one, adaptive picks
        // the other.
        let spec = NetworkSpec::uniform("c4", Graph::cycle(4), 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        // Jam the 0→1→2 side.
        for _ in 0..4 {
            m.send_routers(0, 1, 1_000_000, 0, RoutingMode::Min)
                .unwrap();
            m.send_routers(1, 2, 1_000_000, 0, RoutingMode::Min)
                .unwrap();
        }
        let min_t = {
            let p = m.min_path(0, 2).unwrap();
            m.predict(&p, 10_000, 0)
        };
        let t = m
            .send_routers(0, 2, 10_000, 0, RoutingMode::Adaptive { candidates: 8 })
            .unwrap();
        assert!(
            t <= min_t,
            "adaptive {t} must beat congested minimal {min_t}"
        );
    }

    #[test]
    fn reset_clears_reservations() {
        let mut m = model();
        let t1 = m.send_routers(0, 1, 4000, 0, RoutingMode::Min).unwrap();
        m.reset();
        let t2 = m.send_routers(0, 1, 4000, 0, RoutingMode::Min).unwrap();
        assert_eq!(t1, t2);
    }

    #[test]
    fn reset_model_repeats_a_fresh_one() {
        // C8 has two minimal paths between antipodes and every UGAL
        // send draws intermediates, so the sequence depends on the RNG.
        let sequence = |m: &mut NetModel| -> Vec<Time> {
            let ugal = RoutingMode::Adaptive { candidates: 4 };
            (0..40u32)
                .map(|i| {
                    let bytes = 10_000 + 500 * u64::from(i);
                    m.send_routers(i % 8, (i + 4) % 8, bytes, 0, ugal).unwrap()
                })
                .collect()
        };
        let fresh = || {
            let spec = NetworkSpec::uniform("c8", Graph::cycle(8), 1);
            NetModel::new(spec, MotifConfig::default())
        };
        let want = sequence(&mut fresh());
        let mut m = fresh();
        for _ in 0..3 {
            m.send_routers(1, 5, 777, 0, RoutingMode::Min).unwrap();
        }
        m.reset();
        assert_eq!(sequence(&mut m), want, "reset left the RNG advanced");
    }

    #[test]
    fn link_accounting_tracks_reservations() {
        let mut m = model();
        // Two 4000-byte messages over 0→1→2→3: serial 1000 ns each.
        m.send_routers(0, 3, 4000, 0, RoutingMode::Min).unwrap();
        let done = m.send_routers(0, 3, 4000, 0, RoutingMode::Min).unwrap();
        assert_eq!(m.link_busy_time(0, 1), ns(2000.0));
        assert_eq!(m.link_busy_time(1, 0), 0, "reverse direction unused");
        let rep = m.link_report(done);
        assert_eq!(rep.links_used, 3);
        assert_eq!(rep.messages, 6, "2 messages × 3 hops");
        assert!(rep.max_utilization > 0.0 && rep.max_utilization <= 1.0);
        assert!(rep.mean_utilization <= rep.max_utilization);
        m.reset();
        assert_eq!(m.link_busy_time(0, 1), 0);
        assert_eq!(m.link_report(done).links_used, 0);
    }

    #[test]
    fn link_report_empty_and_zero_horizon() {
        let m = model();
        let rep = m.link_report(1000);
        assert_eq!(
            rep,
            LinkLoadReport {
                links_used: 0,
                messages: 0,
                mean_utilization: 0.0,
                max_utilization: 0.0,
            }
        );
        let mut m = model();
        m.send_routers(0, 1, 4000, 0, RoutingMode::Min).unwrap();
        assert_eq!(m.link_report(0).mean_utilization, 0.0);
    }

    #[test]
    fn loopback_is_cheap() {
        let mut m = model();
        let t = m.send_routers(2, 2, 1 << 20, 0, RoutingMode::Min).unwrap();
        assert!(t < ns(200.0));
    }

    #[test]
    fn disconnected_pair_errors_instead_of_panicking() {
        // Two components: {0, 1} and {2, 3}.
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let spec = NetworkSpec::uniform("split", g, 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        assert!(m.min_path(0, 2).is_none());
        assert!(m.ecmp_path(0, 3).is_none());
        assert_eq!(
            m.send_routers(0, 2, 1000, 0, RoutingMode::Min),
            Err(MotifError::Disconnected {
                src: 0,
                dst: 2,
                motif: None
            })
        );
        assert_eq!(
            m.send_routers(0, 2, 1000, 0, RoutingMode::Adaptive { candidates: 4 }),
            Err(MotifError::Disconnected {
                src: 0,
                dst: 2,
                motif: None
            })
        );
        // Connected halves still work.
        assert!(m.send_routers(0, 1, 1000, 0, RoutingMode::Min).is_ok());
        assert!(m.send_routers(2, 3, 1000, 0, RoutingMode::Min).is_ok());
    }

    /// K4 and the first id past it: every entry point that takes a
    /// router id used to index out of bounds on it.
    fn k4() -> (NetModel, u32) {
        let spec = NetworkSpec::uniform("k4", Graph::complete(4), 1);
        (NetModel::new(spec, MotifConfig::default()), 4)
    }

    #[test]
    fn send_routers_rejects_ids_outside_the_network() {
        let (mut m, n) = k4();
        for (src, dst) in [(0, n), (n, 0), (n, n)] {
            for mode in [RoutingMode::Min, RoutingMode::Adaptive { candidates: 2 }] {
                let err = m.send_routers(src, dst, 8, 0, mode).unwrap_err();
                assert!(matches!(err, MotifError::InvalidConfig { .. }), "{err}");
            }
        }
        assert!(m.send_routers(0, 3, 8, 0, RoutingMode::Min).is_ok());
    }

    #[test]
    fn send_link_rejects_ids_outside_the_network() {
        let (mut m, n) = k4();
        for (u, v) in [(0, n), (n, 0), (n + 7, n)] {
            let err = m.send_link(u, v, 8, 0).unwrap_err();
            assert!(matches!(err, MotifError::InvalidConfig { .. }), "{err}");
        }
        assert!(m.send_link(0, 3, 8, 0).is_ok());
    }

    #[test]
    fn send_endpoints_rejects_ids_outside_the_network() {
        // Two endpoints a router: ids 0..8.
        let spec = NetworkSpec::uniform("k4", Graph::complete(4), 2);
        let mut m = NetModel::new(spec, MotifConfig::default());
        for (src, dst) in [(0, 8), (8, 0), (3, u32::MAX)] {
            for mode in [RoutingMode::Min, RoutingMode::Adaptive { candidates: 2 }] {
                let err = m.send_endpoints(src, dst, 8, 0, mode).unwrap_err();
                let want = format!("endpoint {} outside a network of 8 endpoints", src.max(dst));
                assert_eq!(err, MotifError::invalid_config(want));
            }
        }
        assert!(m.send_endpoints(0, 7, 8, 0, RoutingMode::Min).is_ok());
    }

    #[test]
    fn link_busy_time_is_zero_outside_the_network() {
        let (mut m, n) = k4();
        m.send_link(0, 3, 8, 0).unwrap();
        for (u, v) in [(0, n), (n, 0), (n + 7, n), (u32::MAX, 3)] {
            assert_eq!(m.link_busy_time(u, v), 0, "{u}→{v}");
        }
        assert_eq!(m.link_busy_time(0, 3), ns(2.0));
    }

    #[test]
    fn min_path_is_none_outside_the_network() {
        let (m, n) = k4();
        for (src, dst) in [(0, n), (n, 0), (n, n)] {
            assert_eq!(m.min_path(src, dst), None, "{src}→{dst}");
        }
        assert_eq!(m.min_path(0, 3).unwrap().len(), 1);
    }

    #[test]
    fn ecmp_path_is_none_outside_the_network() {
        let (mut m, n) = k4();
        for (src, dst) in [(0, n), (n, 0), (n, n)] {
            assert_eq!(m.ecmp_path(src, dst), None, "{src}→{dst}");
        }
        assert_eq!(m.ecmp_path(0, 3).unwrap().len(), 1);
    }

    #[test]
    fn oversized_network_is_invalid_config_not_a_panic() {
        // 70 000 routers are past ROUTER_LIMIT: their port masks would
        // outgrow memory long before the last block was swept.
        let n = 70_000u32;
        let spec = NetworkSpec::uniform("c70k", Graph::cycle(n as usize), 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        for mode in [RoutingMode::Min, RoutingMode::Adaptive { candidates: 2 }] {
            for (src, dst) in [(0, 1), (5, 5), (0, n), (n, 0)] {
                let err = m.send_routers(src, dst, 8, 0, mode).unwrap_err();
                assert!(matches!(err, MotifError::InvalidConfig { .. }), "{err}");
            }
            let err = m.send_endpoints(0, 9, 8, 0, mode).unwrap_err();
            assert!(matches!(err, MotifError::InvalidConfig { .. }), "{err}");
        }
        assert_eq!(m.min_path(0, 1), None);
        assert_eq!(m.ecmp_path(0, 1), None);
        assert_eq!(m.min_path(0, n), None);
        // A chosen link needs no routing and still works.
        assert!(m.send_link(0, 1, 8, 0).is_ok());
    }

    #[test]
    fn hops_of_any_degree_route() {
        // K70: degree 69, beyond any fixed radix bound; K4,40 offers a
        // hop 40 equal choices.
        let spec = NetworkSpec::uniform("k70", Graph::complete(70), 1);
        let (mut m, n) = (NetModel::new(spec, MotifConfig::default()), 70);
        for mode in [RoutingMode::Min, RoutingMode::Adaptive { candidates: 4 }] {
            for src in 0..n {
                assert!(m.send_routers(src, (src + 33) % n, 64, 0, mode).is_ok());
            }
            let err = m.send_routers(0, n, 64, 0, mode).unwrap_err();
            assert!(matches!(err, MotifError::InvalidConfig { .. }), "{err}");
        }
        let wide: Vec<(u32, u32)> = (0..4).flat_map(|a| (4..44).map(move |b| (a, b))).collect();
        let spec = NetworkSpec::uniform("k4_40", Graph::from_edges(44, &wide), 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        let firsts: std::collections::BTreeSet<u32> =
            (0..200).map(|_| m.ecmp_path(0, 1).unwrap()[0]).collect();
        assert!(firsts.len() > 20, "{} of 40 first hops drawn", firsts.len());
    }

    #[test]
    fn fault_mask_reroutes_motif_paths() {
        let spec = NetworkSpec::uniform("c6", Graph::cycle(6), 1)
            .with_faults(polarstar_topo::FaultSet::from_links([(0, 1)]));
        let mut m = NetModel::new(spec, MotifConfig::default());
        // The cut cable forces the long way round.
        assert_eq!(m.min_path(0, 1).unwrap().len(), 5);
        assert!(m.send_routers(0, 1, 1000, 0, RoutingMode::Min).is_ok());
    }

    #[test]
    fn failed_router_disconnects_its_traffic() {
        let spec = NetworkSpec::uniform("c6", Graph::cycle(6), 1)
            .with_faults(polarstar_topo::FaultSet::from_routers([2]));
        let mut m = NetModel::new(spec, MotifConfig::default());
        // Traffic to/from the dead router fails — including loopback.
        assert!(m.send_routers(2, 4, 1000, 0, RoutingMode::Min).is_err());
        assert!(m.send_routers(4, 2, 1000, 0, RoutingMode::Min).is_err());
        assert!(m.send_routers(2, 2, 1000, 0, RoutingMode::Min).is_err());
        // The rest of the ring routes around the hole.
        assert_eq!(m.min_path(1, 3).unwrap().len(), 4);
        assert!(m.send_routers(1, 3, 1000, 0, RoutingMode::Min).is_ok());
    }

    #[test]
    fn adaptive_truncates_detour_at_destination() {
        // Diamond 0–{1,2}–3 with a pendant 4 hanging off dst 3. A
        // detour via mid 4 must pass through 3; the spliced path is cut
        // there and never reserves the pendant links.
        let g = Graph::from_edges(5, &[(0, 1), (1, 3), (0, 2), (2, 3), (3, 4)]);
        let spec = NetworkSpec::uniform("diamond", g, 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        // Jam one of the two minimal routes so detours get considered.
        for _ in 0..6 {
            m.send_routers(0, 1, 1_000_000, 0, RoutingMode::Min)
                .unwrap();
        }
        for _ in 0..40 {
            m.send_routers(0, 3, 50_000, 0, RoutingMode::Adaptive { candidates: 8 })
                .unwrap();
        }
        assert_eq!(m.link_busy_time(3, 4), 0, "reserved past the destination");
        assert_eq!(m.link_busy_time(4, 3), 0, "reserved past the destination");
    }

    #[test]
    fn adaptive_resamples_endpoint_draws() {
        // Triangle: the only valid intermediate for 0→1 is router 2.
        // With a single candidate slot, resampling (instead of burning
        // the slot when the draw hits src/dst) must still find it.
        let spec = NetworkSpec::uniform("tri", Graph::cycle(3), 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        // Saturate the direct link 0→1.
        for _ in 0..8 {
            m.send_routers(0, 1, 1_000_000, 0, RoutingMode::Min)
                .unwrap();
        }
        let min_t = {
            let p = m.min_path(0, 1).unwrap();
            m.predict(&p, 10_000, 0)
        };
        let t = m
            .send_routers(0, 1, 10_000, 0, RoutingMode::Adaptive { candidates: 2 })
            .unwrap();
        assert!(t < min_t, "detour not taken: {t} vs min {min_t}");
    }

    #[test]
    fn send_link_reserves_one_edge() {
        let mut m = model();
        // One hop, no path search: overhead + per-hop + serialization.
        let t = m.send_link(1, 2, 4000, 0).unwrap();
        assert_eq!(t, ns(100.0 + 40.0 + 1000.0));
        assert_eq!(m.link_busy_time(1, 2), ns(1000.0));
        assert_eq!(m.link_busy_time(2, 1), 0);
        // Matches send_routers for a single-hop message.
        let mut m2 = model();
        let t2 = m2.send_routers(1, 2, 4000, 0, RoutingMode::Min).unwrap();
        assert_eq!(t, t2);
        // Contention applies like any other reservation.
        let t3 = m.send_link(1, 2, 4000, t).unwrap();
        assert!(t3 > t + ns(1000.0));
        // Non-edges and failed links are typed errors.
        assert!(matches!(
            m.send_link(0, 3, 8, 0),
            Err(MotifError::Disconnected {
                src: 0,
                dst: 3,
                motif: None
            })
        ));
        let cut = NetworkSpec::uniform("path4", Graph::path(4), 1)
            .with_faults(FaultSet::from_directed_links([(2, 1)]));
        let mut m = NetModel::new(cut, MotifConfig::default());
        assert!(
            m.send_link(1, 2, 8, 0).is_err(),
            "a half-dead cable is dead"
        );
        assert!(m.send_link(2, 3, 8, 0).is_ok());
    }

    #[test]
    fn sender_busy_covers_overhead_and_serialization() {
        let m = model();
        // 4000 bytes at 4 B/ns = 1000 ns serialization + 100 ns overhead.
        assert_eq!(m.sender_busy(4000), ns(1100.0));
    }

    /// Whether bit `p` of a mask is set.
    fn has_port(mask: &[u8], p: usize) -> bool {
        mask[p / 8] >> (p % 8) & 1 != 0
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn port_masks_are_the_scalar_port_rule(
            size in 0usize..5,
            density in 1usize..5,
            cut in 0u32..40,
            seed in 0u64..10_000,
        ) {
            // Block boundaries on either side of one word of
            // destinations, and a single router; a hub cabled to every
            // even router has more ports than a word has bits (masks of
            // 9 bytes and more) once n = 150.
            let n = [1usize, 63, 64, 65, 150][size];
            let nn = n as u32;
            let hub = seed as u32 % nn;
            let random = polarstar_graph::random::gnm(n, (n * density / 2).min(n * (n - 1) / 2), seed);
            let mut edges: Vec<(u32, u32)> = random.edges().collect();
            edges.extend((0..nn).step_by(2).filter(|&v| v != hub).map(|v| (hub, v)));
            let g = Graph::from_edges(n, &edges);
            prop_assert!(n < 150 || g.degree(hub) > 64);
            let cables = FaultSet::random_links(&g, cut as f64 / 100.0, seed);
            let one_way = FaultSet::from_directed_links(
                g.edges().filter(|&(u, v)| (u ^ v ^ seed as u32).is_multiple_of(5)).map(|(u, v)| (v, u)),
            );
            let dead = FaultSet::from_routers([(seed as u32 / 7) % nn]);
            for faults in [
                FaultSet::empty(),
                cables.clone(),
                one_way.union(&dead),
                cables.union(&one_way).union(&dead),
            ] {
                let mask = faults.compile(&g);
                let ports = PortMasks::new(&g);
                let (width, row) = (ports.width, n * ports.width);
                let blocks: Vec<&[u8]> = (0..nn.div_ceil(64)).map(|b| ports.block(&g, &mask, b * 64)).collect();
                for (b, masks) in blocks.iter().enumerate() {
                    prop_assert_eq!(masks.len(), 64 * row);
                    for i in 0..64 {
                        let masks = &masks[i * row..][..row];
                        if 64 * b + i >= n {
                            prop_assert!(masks.iter().all(|&m| m == 0), "row {} of block {}", i, b);
                            continue;
                        }
                        for v in 0..nn {
                            let m = &masks[v as usize * width..][..width];
                            let past = (g.degree(v)..8 * width).find(|&p| has_port(m, p));
                            prop_assert_eq!(past, None, "{} → {} of {}", v, 64 * b + i, n);
                        }
                    }
                }
                let mut col = Vec::new();
                for dst in 0..nn {
                    masked_distance_column(&g, &mask, dst, &mut col);
                    let masks = &blocks[dst as usize / 64][(dst as usize % 64) * row..][..row];
                    for v in 0..nn {
                        let scalar: Vec<u32> = column_next_hops(&g, &col, v, &mask).map(|(e, _)| e).collect();
                        let (m, start) = (&masks[v as usize * width..][..width], g.edge_range(v).start);
                        let bits: Vec<u32> = (0..g.degree(v)).filter(|&p| has_port(m, p)).map(|p| start + p as u32).collect();
                        prop_assert_eq!(bits, scalar, "{} → {} of {}", v, dst, n);
                    }
                }
            }
        }
    }
}
