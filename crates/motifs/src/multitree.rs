//! Fault-tolerant multi-tree collectives over edge-disjoint spanning
//! trees.
//!
//! The payload is striped into one chunk per tree and each chunk is
//! pipelined down its tree in [`SEGMENT_BYTES`] messages (§10.1's
//! 64 KB), so a hop costs latency once the pipeline fills rather than a
//! full re-serialization. Chunk sizes are waterfilled: a tree's
//! completion is ≈ pipeline ramp (depth × per-segment hop time) plus
//! chunk/bandwidth, so deeper trees get smaller chunks until the
//! completions equalize. The trees are edge-disjoint, so the chunks
//! never contend and pristine bandwidth scales with the tree count
//! (Dawkins et al., arXiv 2403.12231). The robustness core is the epoch
//! machinery: a [`FaultEpochs`] timeline (from a [`FaultSchedule`] or
//! a single burst mask) is consulted at every tree-edge send, and a fault that kills
//! an edge of tree *t* mid-collective degrades gracefully — the failed
//! chunk is re-striped (waterfilled again) across the surviving trees
//! (optionally
//! after patching *t* with a replacement edge disjoint from every other
//! tree via [`polarstar_graph::edst::find_replacement`]), so the
//! collective completes at proportionally reduced bandwidth (losing k
//! of T trees costs ≈ T/(T−k)× the pristine time) instead of returning
//! [`MotifError::Disconnected`]. Only when every tree is dead does the
//! collective report the killing edge, tagged with the motif name.
//!
//! Everything here is sequential and RNG-free: results are bit-identical
//! at any thread count.

use crate::netmodel::{ns, MotifError, NetModel, Time};
use polarstar_topo::fault::{FaultMask, FaultSchedule, FaultSet};
use std::collections::{HashSet, VecDeque};

/// Pipelining granularity of a chunk flood — §10.1's 64 KB message
/// size. A chunk moves down its tree as a train of segments, so after
/// the ramp each hop adds only per-segment latency, not a full chunk
/// re-serialization.
pub const SEGMENT_BYTES: u64 = 64 * 1024;

/// A piecewise-constant fault mask over the motif clock: `masks[i]`
/// holds from `starts[i]` (ps) until the next epoch begins.
#[derive(Clone, Debug)]
pub struct FaultEpochs {
    starts: Vec<Time>,
    masks: Vec<FaultSet>,
}

impl FaultEpochs {
    /// No fault activity at all.
    pub fn pristine() -> Self {
        Self::at_time_zero(FaultSet::default())
    }

    /// A single mask active from time 0 (a burst that already happened
    /// when the collective starts).
    pub fn at_time_zero(mask: FaultSet) -> Self {
        FaultEpochs {
            starts: vec![0],
            masks: vec![mask],
        }
    }

    /// Materialize a [`FaultSchedule`] on the motif clock, cumulative
    /// from `base`. The motif simulator is not cycle-accurate, so event
    /// *cycles* are interpreted as *nanoseconds* of simulated time.
    pub fn from_schedule(schedule: &FaultSchedule, base: &FaultSet) -> Self {
        let mut starts = Vec::new();
        let mut masks = Vec::new();
        for (cycle, mask) in schedule.epochs(base) {
            starts.push(ns(cycle as f64));
            masks.push(mask);
        }
        FaultEpochs { starts, masks }
    }

    /// The mask active at time `t` (ps).
    pub fn at(&self, t: Time) -> &FaultSet {
        &self.masks[self.epoch(t)]
    }

    /// The index of the epoch active at time `t` (ps).
    fn epoch(&self, t: Time) -> usize {
        // starts[0] == 0 always, so the partition point is ≥ 1.
        self.starts.partition_point(|&s| s <= t) - 1
    }
}

/// What to do when a fault kills an edge of a striped tree.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepairPolicy {
    /// The tree stays dead; its chunks re-stripe over the survivors.
    #[default]
    None,
    /// Patch the tree with a replacement edge that crosses the cut, is
    /// alive at the failure time, and belongs to no other tree — then
    /// keep striping over it. Falls back to plain re-striping when no
    /// such edge exists.
    Replace,
}

/// How a striped collective fared.
#[derive(Clone, Debug, PartialEq)]
pub struct StripedOutcome {
    /// Completion time (ns) — when the last chunk fully delivered.
    pub completion_ns: f64,
    /// Trees the collective started with.
    pub trees: usize,
    /// Trees lost to faults and not repaired.
    pub trees_lost: usize,
    /// Successful in-place tree repairs.
    pub trees_repaired: usize,
    /// Bytes that had to be re-striped after a tree death.
    pub restriped_bytes: u64,
    /// Bytes each original tree ultimately delivered (sums to the
    /// payload size).
    pub delivered_bytes: Vec<u64>,
}

/// A tree edge found dead at time `at`, ending its chunk's flood.
#[derive(Debug)]
struct Dead {
    at: Time,
    edge: (u32, u32),
}

struct TreeState {
    /// Current undirected edge set (mutated by repairs).
    edges: Vec<(u32, u32)>,
    /// Parent→child edges in BFS order from the root.
    oriented: Vec<(u32, u32)>,
    /// Hop depth from the root — the pipelined flood's ramp is
    /// depth × per-segment hop time, so deeper trees get smaller
    /// waterfilled chunks.
    depth: usize,
    /// Estimated completion (ps) of everything scheduled on this tree
    /// so far — a re-striped chunk trails the existing pipeline, so the
    /// re-waterfill splits on this, not the bare ramp.
    sched: Time,
    alive: bool,
    repairs: usize,
}

/// One unit of striped work: `bytes` to move over `tree`, startable
/// from `earliest`.
struct Chunk {
    bytes: u64,
    earliest: Time,
    tree: usize,
}

#[inline]
fn norm(a: u32, b: u32) -> (u32, u32) {
    if a < b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Orient `edges` as parent→child pairs in BFS order from `root`
/// (children visited in ascending id for determinism), or `None` when
/// the edges do not span all `n` vertices.
fn orient(n: usize, edges: &[(u32, u32)], root: u32) -> Option<Vec<(u32, u32)>> {
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(u, v) in edges {
        adj[u as usize].push(v);
        adj[v as usize].push(u);
    }
    for a in &mut adj {
        a.sort_unstable();
    }
    let mut oriented = Vec::with_capacity(edges.len());
    let mut visited = vec![false; n];
    let mut queue = VecDeque::new();
    visited[root as usize] = true;
    queue.push_back(root);
    let mut seen = 1usize;
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u as usize] {
            if !visited[v as usize] {
                visited[v as usize] = true;
                oriented.push((u, v));
                queue.push_back(v);
                seen += 1;
            }
        }
    }
    (seen == n && oriented.len() == edges.len()).then_some(oriented)
}

/// Hop depth of `oriented` (BFS parent→child edges from the root —
/// parents always precede children, so one pass suffices).
fn depth_of(n: usize, oriented: &[(u32, u32)]) -> usize {
    let mut hops = vec![0usize; n];
    let mut depth = 0;
    for &(u, v) in oriented {
        let h = hops[u as usize] + 1;
        hops[v as usize] = h;
        depth = depth.max(h);
    }
    depth
}

/// Hop depth of a spanning tree from `root` — the quantity that sets a
/// pipelined flood's ramp (depth × per-segment hop time) and hence its
/// waterfilled chunk size. `None` when the edges do not span all `n`
/// vertices.
pub fn tree_depth(n: usize, tree: &[(u32, u32)], root: u32) -> Option<usize> {
    orient(n, tree, root).map(|o| depth_of(n, &o))
}

/// Per-segment hop time (ps): fixed overhead plus switch/link traversal
/// plus the segment's serialization — what each tree level adds to a
/// pipelined flood's ramp.
fn hop_time(model: &NetModel) -> Time {
    let cfg = model.config();
    ns(cfg.overhead_ns + cfg.router_latency_ns + cfg.link_latency_ns)
        + ns(SEGMENT_BYTES as f64 / cfg.bandwidth_bytes_per_ns)
}

/// Waterfilled chunk split: tree *i* completes at ≈ `ramps[i]` (its
/// pipeline ramp, ps) + chunk/bandwidth, so raise a common waterline τ
/// and give each tree `(τ − ramp)·bandwidth` bytes — deeper trees get
/// less, trees whose ramp exceeds τ get nothing. Deterministic
/// (stable sort, largest-remainder rounding with ties to the lower
/// index); shares sum to `bytes`.
fn waterfill(bytes: u64, ramps: &[Time], bytes_per_ps: f64) -> Vec<u64> {
    let t = ramps.len();
    let mut order: Vec<usize> = (0..t).collect();
    order.sort_by_key(|&i| (ramps[i], i));
    // The waterline including the j+1 shallowest trees; the last
    // feasible prefix (τ ≥ its deepest included ramp) wins.
    let total = bytes as f64 / bytes_per_ps;
    let mut tau = f64::INFINITY;
    let mut prefix = 0.0;
    for (j, &i) in order.iter().enumerate() {
        prefix += ramps[i] as f64;
        let cand = (total + prefix) / (j + 1) as f64;
        if cand >= ramps[i] as f64 {
            tau = cand;
        }
    }
    let raw: Vec<f64> = ramps
        .iter()
        .map(|&r| ((tau - r as f64) * bytes_per_ps).max(0.0))
        .collect();
    // Integerize: floors, then hand out the remainder by largest
    // fractional part (ties to the lower index).
    let mut shares: Vec<u64> = raw.iter().map(|&c| c as u64).collect();
    let mut left = bytes.saturating_sub(shares.iter().sum());
    let mut fracs: Vec<usize> = (0..t).collect();
    fracs.sort_by(|&a, &b| {
        let (fa, fb) = (raw[a] - raw[a].floor(), raw[b] - raw[b].floor());
        fb.partial_cmp(&fa).unwrap().then(a.cmp(&b))
    });
    let mut j = 0;
    while left > 0 {
        shares[fracs[j % t]] += 1;
        left -= 1;
        j += 1;
    }
    shares
}

/// Striped multi-tree broadcast: `bytes` from rank 0's router to every
/// router, one chunk per tree, surviving tree loss per the module
/// docs. Trees must each span the router graph (pairwise disjointness
/// is what makes them contention-free, but is not required).
pub fn striped_broadcast(
    model: &mut NetModel,
    trees: &[Vec<(u32, u32)>],
    bytes: u64,
    epochs: &FaultEpochs,
    repair: RepairPolicy,
) -> Result<StripedOutcome, MotifError> {
    StripedRun::new(model, trees, epochs, false, "striped_broadcast")?.run(bytes, repair)
}

/// Striped multi-tree allreduce: per tree, the chunk reduces up to the
/// root (children→parent) and the result broadcasts back down — the
/// classic double-tree pass — with the same striping and fault
/// handling as [`striped_broadcast`].
pub fn striped_allreduce(
    model: &mut NetModel,
    trees: &[Vec<(u32, u32)>],
    bytes: u64,
    epochs: &FaultEpochs,
    repair: RepairPolicy,
) -> Result<StripedOutcome, MotifError> {
    StripedRun::new(model, trees, epochs, true, "striped_allreduce")?.run(bytes, repair)
}

/// One striped collective in flight: the model and fault timeline every
/// send consults, the per-tree state, and the chunk queue re-striping
/// feeds.
struct StripedRun<'a> {
    model: &'a mut NetModel,
    epochs: &'a FaultEpochs,
    /// Per epoch, its fault set ∪ the model's static faults compiled
    /// against the model graph.
    masks: Vec<FaultMask>,
    /// Allreduce (reduce-up, then flood-down) rather than broadcast.
    reduce_first: bool,
    motif: &'static str,
    n: usize,
    root: u32,
    states: Vec<TreeState>,
    /// Normalized edges of every tree — a repair may take none of them.
    used: HashSet<(u32, u32)>,
    queue: VecDeque<Chunk>,
    /// Per-segment hop time (ps).
    hop: Time,
    bytes_per_ps: f64,
    restriped_bytes: u64,
}

impl<'a> StripedRun<'a> {
    fn new(
        model: &'a mut NetModel,
        trees: &[Vec<(u32, u32)>],
        epochs: &'a FaultEpochs,
        reduce_first: bool,
        motif: &'static str,
    ) -> Result<Self, MotifError> {
        if trees.is_empty() {
            return Err(MotifError::invalid_config(format!(
                "{motif} needs at least one spanning tree"
            )));
        }
        let graph = &model.spec().graph;
        let n = graph.n();
        let (root, _) = model.spec().endpoint_router(0);
        let mut states = Vec::with_capacity(trees.len());
        let mut used: HashSet<(u32, u32)> = HashSet::new();
        for (i, tree) in trees.iter().enumerate() {
            let link = |&&(u, v): &&(u32, u32)| (u as usize) < n && graph.has_edge(u, v);
            if let Some((u, v)) = tree.iter().find(|e| !link(e)) {
                return Err(MotifError::invalid_config(format!(
                    "{motif}: tree {i} edge ({u}, {v}) is no link of the network"
                )));
            }
            let oriented = orient(n, tree, root).ok_or_else(|| {
                MotifError::invalid_config(format!(
                    "{motif}: tree {i} does not span the {n}-router graph"
                ))
            })?;
            for &(u, v) in tree {
                used.insert(norm(u, v));
            }
            let depth = depth_of(n, &oriented);
            states.push(TreeState {
                edges: tree.clone(),
                oriented,
                depth,
                sched: 0,
                alive: true,
                repairs: 0,
            });
        }
        let compile = |set: &FaultSet| set.union(model.faults()).compile(graph);
        let masks = epochs.masks.iter().map(compile).collect();
        Ok(StripedRun {
            hop: hop_time(model),
            masks,
            bytes_per_ps: model.config().bandwidth_bytes_per_ns / 1000.0,
            model,
            epochs,
            reduce_first,
            motif,
            n,
            root,
            states,
            used,
            queue: VecDeque::new(),
            restriped_bytes: 0,
        })
    }

    /// Whether the cable `{u, v}`, a link of the network, is dead at
    /// time `t`: failed on the fault timeline or under the model's
    /// static mask — the edge bit of that epoch's compiled mask.
    fn dead(&self, t: Time, u: u32, v: u32) -> bool {
        let mask = &self.masks[self.epochs.epoch(t)];
        let graph = &self.model.spec().graph;
        !mask.is_empty() && graph.edge_id(u, v).is_some_and(|e| mask.edge_dead(e))
    }

    /// Pipeline ramp (ps) of tree `i` at its current depth; an
    /// allreduce traverses the tree twice.
    fn ramp(&self, i: usize) -> Time {
        let passes: Time = if self.reduce_first { 2 } else { 1 };
        self.states[i].depth as Time * self.hop * passes
    }

    fn run(mut self, bytes: u64, repair: RepairPolicy) -> Result<StripedOutcome, MotifError> {
        let t_count = self.states.len();
        // Stripe: one chunk per tree, waterfilled so the per-tree
        // pipelined completions (≈ ramp + chunk/bandwidth) line up.
        let ramps: Vec<Time> = (0..t_count).map(|i| self.ramp(i)).collect();
        let shares = waterfill(bytes, &ramps, self.bytes_per_ps);
        for (i, &b) in shares.iter().enumerate() {
            self.states[i].sched = ramps[i] + (b as f64 / self.bytes_per_ps) as Time;
        }
        self.queue = shares
            .into_iter()
            .enumerate()
            .map(|(i, b)| Chunk {
                bytes: b,
                earliest: 0,
                tree: i,
            })
            .filter(|c| c.bytes > 0)
            .collect();

        let mut completion: Time = 0;
        let mut trees_lost = 0usize;
        let mut trees_repaired = 0usize;
        let mut delivered = vec![0u64; t_count];
        // The edge whose death stranded the most recent chunk — reported
        // when the last tree dies.
        let mut last_death = (self.root, self.root);

        while let Some(chunk) = self.queue.pop_front() {
            if !self.states[chunk.tree].alive {
                self.restripe(chunk.bytes, chunk.earliest, last_death)?;
                continue;
            }
            // Fault notification: a link already dead when the chunk is
            // scheduled is known up front (keepalive/LLR), not discovered
            // by pouring a ramp's worth of traffic into the tree. Faults
            // that strike later are still caught lazily, send by send.
            let known_dead = self.states[chunk.tree]
                .oriented
                .iter()
                .copied()
                .find(|&(u, v)| self.dead(chunk.earliest, u, v));
            let end = match known_dead {
                Some(edge) => Err(Dead {
                    at: chunk.earliest,
                    edge,
                }),
                None => self.flood(chunk.tree, chunk.bytes, chunk.earliest),
            };
            match end {
                Ok(finish) => {
                    delivered[chunk.tree] += chunk.bytes;
                    completion = completion.max(finish);
                    // Refine the schedule estimate with the actual finish.
                    let s = &mut self.states[chunk.tree];
                    s.sched = s.sched.max(finish);
                }
                Err(Dead { at, edge }) => {
                    last_death = edge;
                    if repair == RepairPolicy::Replace && self.try_repair(chunk.tree, edge, at) {
                        trees_repaired += 1;
                    } else {
                        self.states[chunk.tree].alive = false;
                        trees_lost += 1;
                    }
                    // Re-stripe the whole failed chunk across whatever is
                    // alive now (including the tree itself if repaired).
                    self.restripe(chunk.bytes, at, edge)?;
                }
            }
        }

        Ok(StripedOutcome {
            completion_ns: completion as f64 / 1000.0,
            trees: t_count,
            trees_lost,
            trees_repaired,
            restriped_bytes: self.restriped_bytes,
            delivered_bytes: delivered,
        })
    }

    /// Waterfill `bytes` over the live trees, startable from `at`. A
    /// re-striped chunk trails whatever each tree already carries, so
    /// the split equalizes `max(sched, at + ramp) + share/bandwidth` —
    /// the effective completion of the trailing pipeline (ramps
    /// re-derived from the current depths; a repair can change them).
    /// When no tree survives the collective is disconnected at `killer`,
    /// the edge whose death stranded the bytes.
    fn restripe(&mut self, bytes: u64, at: Time, killer: (u32, u32)) -> Result<(), MotifError> {
        let alive: Vec<usize> = (0..self.states.len())
            .filter(|&i| self.states[i].alive)
            .collect();
        if alive.is_empty() {
            return Err(MotifError::Disconnected {
                src: killer.0,
                dst: killer.1,
                motif: Some(self.motif),
            });
        }
        self.restriped_bytes += bytes;
        let offsets: Vec<Time> = alive
            .iter()
            .map(|&i| {
                // A still-draining tree carries the new chunk right
                // behind its train (done at ≈ sched + share/bw); an idle
                // tree has to ramp its pipeline from scratch.
                if self.states[i].sched > at {
                    self.states[i].sched
                } else {
                    at + self.ramp(i)
                }
            })
            .collect();
        for ((j, &ti), b) in
            alive
                .iter()
                .enumerate()
                .zip(waterfill(bytes, &offsets, self.bytes_per_ps))
        {
            if b > 0 {
                self.states[ti].sched = offsets[j] + (b as f64 / self.bytes_per_ps) as Time;
                self.queue.push_back(Chunk {
                    bytes: b,
                    earliest: at,
                    tree: ti,
                });
            }
        }
        Ok(())
    }

    /// Move `chunk` over tree `ti` from `start`, pipelined as a train of
    /// [`SEGMENT_BYTES`] segments: a router forwards each segment as
    /// soon as it holds it, so after the depth-long ramp a hop adds only
    /// per-segment latency, not a full chunk re-serialization. A
    /// broadcast is the flood-down pass from the root; an allreduce
    /// first reduces up (children→parent), then floods the result down
    /// the same way. Returns when the last segment landed.
    fn flood(&mut self, ti: usize, chunk: u64, start: Time) -> Result<Time, Dead> {
        let nseg = chunk.div_ceil(SEGMENT_BYTES).max(1) as usize;
        // at[v * nseg + s]: when router v holds segment s (its own
        // contribution at `start`, then whatever the passes deliver).
        let mut at: Vec<Time> = vec![start; self.n * nseg];
        if self.reduce_first {
            self.reduce_up(ti, chunk, &mut at)?;
        }
        self.flood_down(ti, chunk, &mut at)?;
        Ok(at.into_iter().max().unwrap_or(start))
    }

    /// Children fold their subtrees' segments into their parents, in
    /// reverse BFS order; the root's row of `at` ends as the times the
    /// reduced segments are ready.
    fn reduce_up(&mut self, ti: usize, chunk: u64, at: &mut [Time]) -> Result<(), Dead> {
        for i in (0..self.states[ti].oriented.len()).rev() {
            let (u, v) = self.states[ti].oriented[i];
            self.send_train(v, u, chunk, at)?;
        }
        Ok(())
    }

    /// Parents forward the root's segments to their children, in BFS
    /// order.
    fn flood_down(&mut self, ti: usize, chunk: u64, at: &mut [Time]) -> Result<(), Dead> {
        for i in 0..self.states[ti].oriented.len() {
            let (u, v) = self.states[ti].oriented[i];
            self.send_train(u, v, chunk, at)?;
        }
        Ok(())
    }

    /// Send `chunk`'s segment train over the link `from → to`: segment
    /// `s` leaves when `from` holds it and `to` holds it on arrival.
    /// `max` because a parent folds several children on the way up; on
    /// the way down a router's one arrival is later than anything it
    /// held before, so there `max` is plain assignment. The link's CSR
    /// slot is resolved once per train, and each segment tests that
    /// slot's bit in the epoch mask in force at its start time (which
    /// covers the static mask); link-level contention (trailing
    /// segments, earlier chunks on a repaired or re-striped tree) is the
    /// model's reservations.
    fn send_train(&mut self, from: u32, to: u32, chunk: u64, at: &mut [Time]) -> Result<(), Dead> {
        let nseg = at.len() / self.n;
        let last = chunk - SEGMENT_BYTES * (nseg as u64 - 1);
        // `new` and `try_repair` admit only links of the network.
        let e = self
            .model
            .spec()
            .graph
            .edge_id(from, to)
            .expect("a tree edge is a link");
        for s in 0..nseg {
            let seg = if s + 1 == nseg { last } else { SEGMENT_BYTES };
            let st = at[from as usize * nseg + s];
            if self.masks[self.epochs.epoch(st)].edge_dead(e) {
                return Err(Dead {
                    at: st,
                    edge: (from, to),
                });
            }
            let t = self.model.send_slot(e, seg, st);
            let held = &mut at[to as usize * nseg + s];
            *held = (*held).max(t);
        }
        Ok(())
    }

    /// Try to patch tree `ti` after `dead` failed at time `at`: find the
    /// first graph edge crossing the cut that is alive and in no tree,
    /// swap it in, and re-orient. Deterministic (ascending edge order)
    /// and capped at n repairs per tree so a dying router cannot loop
    /// forever.
    fn try_repair(&mut self, ti: usize, dead: (u32, u32), at: Time) -> bool {
        if self.states[ti].repairs >= self.n {
            return false;
        }
        let usable = |a: u32, b: u32| !self.used.contains(&norm(a, b)) && !self.dead(at, a, b);
        let g = &self.model.spec().graph;
        let Some(rep) =
            polarstar_graph::edst::find_replacement(g, &self.states[ti].edges, dead, usable)
        else {
            return false;
        };
        let dead_key = norm(dead.0, dead.1);
        let mut edges = self.states[ti].edges.clone();
        edges.retain(|&(a, b)| norm(a, b) != dead_key);
        edges.push(rep);
        let Some(oriented) = orient(self.n, &edges, self.root) else {
            return false;
        };
        self.used.remove(&dead_key);
        self.used.insert(norm(rep.0, rep.1));
        let st = &mut self.states[ti];
        st.edges = edges;
        st.depth = depth_of(self.n, &oriented);
        st.oriented = oriented;
        st.repairs += 1;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::tree_broadcast;
    use crate::netmodel::{MotifConfig, RoutingMode};
    use polarstar_graph::edst::greedy_edst;
    use polarstar_graph::Graph;
    use polarstar_topo::network::NetworkSpec;

    fn model_of(g: Graph) -> NetModel {
        let spec = NetworkSpec::uniform("t", g, 1);
        NetModel::new(spec, MotifConfig::default())
    }

    #[test]
    fn epochs_map_schedule_cycles_to_ns() {
        let sched = FaultSchedule::new()
            .fail_link_at(5, 0, 1)
            .recover_link_at(9, 0, 1);
        let e = FaultEpochs::from_schedule(&sched, &FaultSet::default());
        assert!(!e.at(0).edge_failed(0, 1));
        assert!(!e.at(ns(4.9)).edge_failed(1, 0));
        assert!(e.at(ns(5.0)).edge_failed(0, 1));
        assert!(e.at(ns(8.9)).edge_failed(0, 1));
        assert!(!e.at(ns(9.0)).edge_failed(0, 1));
        // A base mask holds from time 0.
        let e = FaultEpochs::from_schedule(&FaultSchedule::new(), &FaultSet::from_links([(2, 3)]));
        assert!(e.at(0).edge_failed(2, 3));
        assert!(FaultEpochs::pristine().at(ns(1e9)).is_empty());
    }

    #[test]
    fn single_tree_matches_tree_broadcast() {
        // On one tree with no faults and a payload of a single segment,
        // the striped motif is exactly the existing tree_broadcast
        // (adjacent sends take identical paths).
        let bytes = 32u64 << 10;
        assert!(bytes <= SEGMENT_BYTES);
        let g = Graph::complete(5);
        let trees = vec![greedy_edst(&g).remove(0)];
        let mut m1 = model_of(g.clone());
        let t_ref = tree_broadcast(&mut m1, &trees, bytes, RoutingMode::Min).unwrap();
        let mut m2 = model_of(g);
        let out = striped_broadcast(
            &mut m2,
            &trees,
            bytes,
            &FaultEpochs::pristine(),
            RepairPolicy::None,
        )
        .unwrap();
        assert_eq!(out.completion_ns, t_ref);
        assert_eq!(out.trees_lost, 0);
        assert_eq!(out.delivered_bytes, vec![bytes]);
    }

    #[test]
    fn striping_scales_bandwidth() {
        let g = Graph::complete(8);
        let trees = greedy_edst(&g);
        assert!(trees.len() >= 3);
        let bytes = 8u64 << 20;
        let mut m = model_of(g.clone());
        let one = striped_broadcast(
            &mut m,
            &trees[..1],
            bytes,
            &FaultEpochs::pristine(),
            RepairPolicy::None,
        )
        .unwrap();
        let mut m = model_of(g);
        let all = striped_broadcast(
            &mut m,
            &trees,
            bytes,
            &FaultEpochs::pristine(),
            RepairPolicy::None,
        )
        .unwrap();
        // Edge-disjoint trees don't contend: close to trees.len()× faster.
        assert!(
            all.completion_ns < 0.6 * one.completion_ns,
            "striped {} vs single {}",
            all.completion_ns,
            one.completion_ns
        );
        let total: u64 = all.delivered_bytes.iter().sum();
        assert_eq!(total, bytes);
    }

    #[test]
    fn tree_loss_degrades_instead_of_disconnecting() {
        let g = Graph::complete(8);
        let trees = greedy_edst(&g);
        let t = trees.len() as f64;
        let bytes = 8u64 << 20;
        let mut m = model_of(g.clone());
        let pristine = striped_broadcast(
            &mut m,
            &trees,
            bytes,
            &FaultEpochs::pristine(),
            RepairPolicy::None,
        )
        .unwrap();
        // Kill one edge of tree 0 before anything moves.
        let burst = FaultSet::from_links([trees[0][0]]);
        let mut m = model_of(g);
        let hurt = striped_broadcast(
            &mut m,
            &trees,
            bytes,
            &FaultEpochs::at_time_zero(burst),
            RepairPolicy::None,
        )
        .unwrap();
        assert_eq!(hurt.trees_lost, 1);
        assert_eq!(hurt.delivered_bytes[0], 0);
        assert_eq!(hurt.delivered_bytes.iter().sum::<u64>(), bytes);
        assert!(hurt.restriped_bytes > 0);
        // Delivered bandwidth ≥ (T−1)/T of pristine within 10%:
        // completion ≤ 1.1 × T/(T−1) × pristine.
        let bound = 1.1 * (t / (t - 1.0)) * pristine.completion_ns;
        assert!(
            hurt.completion_ns <= bound,
            "degraded {} > bound {}",
            hurt.completion_ns,
            bound
        );
        // (No lower-bound check: when the dead tree was the deepest,
        // losing it can legitimately make completion faster.)
    }

    #[test]
    fn losing_every_tree_reports_the_killer() {
        let g = Graph::cycle(6);
        let trees = greedy_edst(&g);
        assert_eq!(trees.len(), 1);
        let burst = FaultSet::from_links([trees[0][2]]);
        let mut m = model_of(g);
        let err = striped_broadcast(
            &mut m,
            &trees,
            1 << 16,
            &FaultEpochs::at_time_zero(burst),
            RepairPolicy::None,
        )
        .unwrap_err();
        match err {
            MotifError::Disconnected { motif, .. } => {
                assert_eq!(motif, Some("striped_broadcast"));
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn repair_keeps_the_tree_alive() {
        // C6 plus a chord: the packing is one tree; killing a tree edge
        // with RepairPolicy::Replace patches in an unused edge and the
        // broadcast completes without losing the tree.
        let mut edges: Vec<(u32, u32)> = (0..6).map(|u| (u, (u + 1) % 6)).collect();
        edges.push((0, 3));
        let g = Graph::from_edges(6, &edges);
        let trees = vec![vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]];
        let burst = FaultEpochs::at_time_zero(FaultSet::from_links([(1, 2)]));
        let mut m = model_of(g.clone());
        let out =
            striped_broadcast(&mut m, &trees, 1 << 16, &burst, RepairPolicy::Replace).unwrap();
        assert_eq!(out.trees_repaired, 1);
        assert_eq!(out.trees_lost, 0);
        assert_eq!(out.delivered_bytes.iter().sum::<u64>(), 1 << 16);
        // Without repair the same burst is fatal (single tree).
        let mut m = model_of(g);
        assert!(striped_broadcast(&mut m, &trees, 1 << 16, &burst, RepairPolicy::None).is_err());
    }

    #[test]
    fn mid_collective_burst_restripes_in_flight() {
        // The schedule kills a tree-0 edge partway through the
        // broadcast (cycles are ns on the motif clock): the collective
        // still delivers everything.
        let g = Graph::complete(8);
        let trees = greedy_edst(&g);
        let bytes = 8u64 << 20;
        let mut m = model_of(g.clone());
        let pristine = striped_broadcast(
            &mut m,
            &trees,
            bytes,
            &FaultEpochs::pristine(),
            RepairPolicy::None,
        )
        .unwrap();
        let mid = (pristine.completion_ns / 2.0) as u64;
        let sched = FaultSchedule::new().fail_at(mid, FaultSet::from_links([trees[0][1]]));
        let epochs = FaultEpochs::from_schedule(&sched, &FaultSet::default());
        let mut m = model_of(g);
        let hurt = striped_broadcast(&mut m, &trees, bytes, &epochs, RepairPolicy::None).unwrap();
        assert_eq!(hurt.delivered_bytes.iter().sum::<u64>(), bytes);
        assert!(hurt.completion_ns >= pristine.completion_ns);
    }

    #[test]
    fn allreduce_survives_tree_loss() {
        let g = Graph::complete(8);
        let trees = greedy_edst(&g);
        let bytes = 4u64 << 20;
        let mut m = model_of(g.clone());
        let pristine = striped_allreduce(
            &mut m,
            &trees,
            bytes,
            &FaultEpochs::pristine(),
            RepairPolicy::None,
        )
        .unwrap();
        let mut m = model_of(g.clone());
        let bcast = striped_broadcast(
            &mut m,
            &trees,
            bytes,
            &FaultEpochs::pristine(),
            RepairPolicy::None,
        )
        .unwrap();
        // Reduce + broadcast costs more than broadcast alone.
        assert!(pristine.completion_ns > bcast.completion_ns);
        let burst = FaultSet::from_links([trees[1][0]]);
        let mut m = model_of(g);
        let hurt = striped_allreduce(
            &mut m,
            &trees,
            bytes,
            &FaultEpochs::at_time_zero(burst),
            RepairPolicy::None,
        )
        .unwrap();
        assert_eq!(hurt.trees_lost, 1);
        assert_eq!(hurt.delivered_bytes.iter().sum::<u64>(), bytes);
    }

    #[test]
    fn one_segment_allreduce_is_reduce_up_then_the_broadcast_flood() {
        let g = Graph::complete(6);
        let trees = vec![greedy_edst(&g).remove(0)];
        let epochs = FaultEpochs::pristine();
        let bytes = 32u64 << 10;
        assert!(bytes <= SEGMENT_BYTES);
        let mut m = model_of(g.clone());
        let whole = StripedRun::new(&mut m, &trees, &epochs, true, "t")
            .unwrap()
            .flood(0, bytes, 0)
            .unwrap();
        // The two passes by hand on a fresh model: reduce up, then the
        // broadcast's flood from the moment the root holds the result.
        let mut m = model_of(g.clone());
        let mut run = StripedRun::new(&mut m, &trees, &epochs, true, "t").unwrap();
        let mut at = vec![0; run.n];
        run.reduce_up(0, bytes, &mut at).unwrap();
        let ready = at[run.root as usize];
        assert!(ready > 0);
        run.reduce_first = false;
        assert_eq!(run.flood(0, bytes, ready).unwrap(), whole);
        // And it is what the public entry point reports.
        let mut m = model_of(g);
        let out = striped_allreduce(&mut m, &trees, bytes, &epochs, RepairPolicy::None).unwrap();
        assert_eq!(out.completion_ns, whole as f64 / 1000.0);
    }

    #[test]
    fn rejects_tree_edges_that_are_no_link() {
        // C6 has no cable 0 – 3, nor a router 6.
        let tree = |e| vec![(0u32, 1u32), (1, 2), e, (3, 4), (4, 5)];
        for (u, v) in [(0, 3), (2, 6), (6, 2)] {
            let mut m = model_of(Graph::cycle(6));
            let trees = vec![tree((2, 3)), tree((u, v))];
            let err = striped_allreduce(
                &mut m,
                &trees,
                1024,
                &FaultEpochs::pristine(),
                RepairPolicy::None,
            )
            .unwrap_err();
            let reason =
                format!("striped_allreduce: tree 1 edge ({u}, {v}) is no link of the network");
            assert_eq!(err, MotifError::invalid_config(reason));
        }
    }

    #[test]
    fn rejects_non_spanning_trees() {
        let g = Graph::complete(4);
        let mut m = model_of(g);
        let bad = vec![vec![(0u32, 1u32), (1, 2)]]; // misses vertex 3
        let err = striped_broadcast(
            &mut m,
            &bad,
            1024,
            &FaultEpochs::pristine(),
            RepairPolicy::None,
        )
        .unwrap_err();
        assert!(matches!(err, MotifError::InvalidConfig { .. }));
        let mut m = model_of(Graph::complete(4));
        let none: Vec<Vec<(u32, u32)>> = Vec::new();
        assert!(striped_broadcast(
            &mut m,
            &none,
            1024,
            &FaultEpochs::pristine(),
            RepairPolicy::None
        )
        .is_err());
    }
}
