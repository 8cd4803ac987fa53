//! The Ember motifs used in §10: Allreduce and Sweep3D.
//!
//! Each motif runs as a dependency-driven schedule of messages over the
//! [`NetModel`]: rank r's step k starts when its step-(k−1) work and all
//! inbound step-k messages have arrived; message delivery times come
//! from the contention model.

use crate::netmodel::{ns, MotifError, NetModel, RoutingMode, Time};

/// Allreduce algorithm choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// log₂(P) exchange rounds of the full message (power-of-two ranks
    /// fold the remainder in pre/post steps).
    RecursiveDoubling,
    /// 2(P−1) steps of size S/P (bandwidth-optimal reduce-scatter +
    /// allgather).
    Ring,
}

/// Simulated completion time (ns) of `iters` back-to-back allreduces of
/// `bytes` over all `ranks` endpoints of the model's network, or
/// [`MotifError::Disconnected`] when a fault-degraded network severs a
/// participating pair.
///
/// ```
/// use polarstar_motifs::{allreduce, AllreduceAlgo, MotifConfig, NetModel, RoutingMode};
/// use polarstar_topo::network::NetworkSpec;
/// let spec = NetworkSpec::uniform("k4", polarstar_graph::Graph::complete(4), 2);
/// let mut model = NetModel::new(spec, MotifConfig::default());
/// let t_ns = allreduce(&mut model, AllreduceAlgo::RecursiveDoubling, 4096, 1, RoutingMode::Min)
///     .unwrap();
/// assert!(t_ns > 0.0);
/// ```
pub fn allreduce(
    model: &mut NetModel,
    algo: AllreduceAlgo,
    bytes: u64,
    iters: usize,
    mode: RoutingMode,
) -> Result<f64, MotifError> {
    let ranks = model.spec().total_endpoints();
    if ranks < 2 {
        return Err(MotifError::invalid_config(format!(
            "allreduce needs at least two ranks, network has {ranks}"
        )));
    }
    let mut ready: Vec<Time> = vec![0; ranks];
    for _ in 0..iters {
        match algo {
            AllreduceAlgo::RecursiveDoubling => {
                recursive_doubling_round(model, &mut ready, bytes, mode)
                    .map_err(|e| e.with_motif("allreduce"))?
            }
            AllreduceAlgo::Ring => {
                ring_round(model, &mut ready, bytes, mode).map_err(|e| e.with_motif("allreduce"))?
            }
        }
    }
    let end = ready.iter().copied().max().unwrap_or(0);
    Ok(end as f64 / 1000.0)
}

fn recursive_doubling_round(
    model: &mut NetModel,
    ready: &mut [Time],
    bytes: u64,
    mode: RoutingMode,
) -> Result<(), MotifError> {
    let p = ready.len();
    let pow2 = 1usize << (usize::BITS - 1 - p.leading_zeros()) as usize;
    let rem = p - pow2;

    // Pre-phase: ranks ≥ pow2 fold into their partner (rank − pow2).
    if rem > 0 {
        for r in pow2..p {
            let partner = r - pow2;
            let start = ready[r];
            let t = model.send_endpoints(r as u32, partner as u32, bytes, start, mode)?;
            ready[partner] = ready[partner].max(t);
            // The sender's NIC stays busy for overhead + serialization;
            // it cannot inject its post-phase reply request earlier.
            ready[r] = ready[r].max(start + model.sender_busy(bytes));
        }
    }
    // log2(pow2) pairwise exchange rounds among the first pow2 ranks.
    let mut starts: Vec<Time> = vec![0; pow2];
    let mut k = 1usize;
    while k < pow2 {
        // Snapshot the round's readiness first so both directions of an
        // exchange start from the same one.
        starts.copy_from_slice(&ready[..pow2]);
        for (r, &start) in starts.iter().enumerate() {
            let partner = r ^ k;
            let t = model.send_endpoints(r as u32, partner as u32, bytes, start, mode)?;
            ready[partner] = ready[partner].max(t);
            // Gate the sender on its own NIC, like `ring_round`: its
            // next-round exchange cannot start before this message
            // finished injecting.
            ready[r] = ready[r].max(start + model.sender_busy(bytes));
        }
        k <<= 1;
    }
    // Post-phase: results flow back to the folded ranks.
    if rem > 0 {
        for r in pow2..p {
            let partner = r - pow2;
            let start = ready[partner];
            let t = model.send_endpoints(partner as u32, r as u32, bytes, start, mode)?;
            ready[r] = ready[r].max(t);
            ready[partner] = ready[partner].max(start + model.sender_busy(bytes));
        }
    }
    Ok(())
}

fn ring_round(
    model: &mut NetModel,
    ready: &mut [Time],
    bytes: u64,
    mode: RoutingMode,
) -> Result<(), MotifError> {
    let p = ready.len();
    let chunk = (bytes / p as u64).max(1);
    // Reduce-scatter then allgather: 2(P−1) ring steps.
    let mut starts: Vec<Time> = vec![0; p];
    for _step in 0..2 * (p - 1) {
        starts.copy_from_slice(ready);
        for (r, &start) in starts.iter().enumerate() {
            let next = (r + 1) % p;
            let t = model.send_endpoints(r as u32, next as u32, chunk, start, mode)?;
            ready[next] = ready[next].max(t);
            // The sender's NIC is busy for overhead + serialization — it
            // cannot inject its next-round chunk before that.
            ready[r] = ready[r].max(start + model.sender_busy(chunk));
        }
    }
    Ok(())
}

/// Simulated completion time (ns) of `iters` Sweep3D wavefront sweeps on
/// a `px × py` rank grid mapped linearly onto endpoints (ranks beyond
/// px·py idle). `bytes` is the per-neighbor boundary exchange,
/// `compute_ns` the per-block compute between receives and sends.
pub fn sweep3d(
    model: &mut NetModel,
    px: usize,
    py: usize,
    bytes: u64,
    compute_ns: f64,
    iters: usize,
    mode: RoutingMode,
) -> Result<f64, MotifError> {
    let ranks = model.spec().total_endpoints();
    if px == 0 || py == 0 {
        return Err(MotifError::invalid_config(format!(
            "sweep3d grid {px}×{py} must be non-empty"
        )));
    }
    if px * py > ranks {
        return Err(MotifError::invalid_config(format!(
            "sweep3d grid {px}×{py} exceeds {ranks} endpoints"
        )));
    }
    let idx = |i: usize, j: usize| i + j * px;
    let mut done: Vec<Time> = vec![0; px * py];
    for _ in 0..iters {
        // Wavefront from (0,0): rank (i,j) starts after receiving from
        // (i−1,j) and (i,j−1).
        let mut recv_time: Vec<Time> = done.clone();
        for j in 0..py {
            for i in 0..px {
                let start = recv_time[idx(i, j)];
                let finish = start + ns(compute_ns);
                // Send to east and south neighbors. The two injections
                // serialize on the rank's NIC (overhead + wire time),
                // exactly like the ring/alltoall sender gating.
                let mut nic_free = finish;
                for (ni, nj) in [(i + 1, j), (i, j + 1)] {
                    if ni < px && nj < py {
                        let t = model
                            .send_endpoints(
                                idx(i, j) as u32,
                                idx(ni, nj) as u32,
                                bytes,
                                nic_free,
                                mode,
                            )
                            .map_err(|e| e.with_motif("sweep3d"))?;
                        recv_time[idx(ni, nj)] = recv_time[idx(ni, nj)].max(t);
                        nic_free += model.sender_busy(bytes);
                    }
                }
                // The rank is done once compute finished and its NIC
                // drained.
                done[idx(i, j)] = finish.max(nic_free);
            }
        }
        // Next sweep starts after the full wavefront drains.
        let sweep_end = *done.iter().max().unwrap();
        for d in done.iter_mut() {
            *d = sweep_end;
        }
    }
    Ok(*done.iter().max().unwrap() as f64 / 1000.0)
}

/// Simulated completion time (ns) of an all-to-all personalized exchange
/// (each rank sends `bytes` to every other rank) using the standard
/// linear-shift schedule: P−1 rounds, rank r sends to r+k in round k.
/// The collective behind FFT transposes — bandwidth-bound on every
/// topology, and the pattern §9.4's shuffle traffic approximates.
pub fn alltoall(
    model: &mut NetModel,
    bytes: u64,
    iters: usize,
    mode: RoutingMode,
) -> Result<f64, MotifError> {
    let p = model.spec().total_endpoints();
    if p < 2 {
        return Err(MotifError::invalid_config(format!(
            "alltoall needs at least two ranks, network has {p}"
        )));
    }
    let mut ready: Vec<Time> = vec![0; p];
    for _ in 0..iters {
        for k in 1..p {
            let starts: Vec<Time> = ready.clone();
            for (r, &start) in starts.iter().enumerate() {
                let dst = (r + k) % p;
                let t = model
                    .send_endpoints(r as u32, dst as u32, bytes, start, mode)
                    .map_err(|e| e.with_motif("alltoall"))?;
                ready[dst] = ready[dst].max(t);
                // Gate the sender on its own NIC: next round's send
                // cannot start until this message finished injecting.
                ready[r] = ready[r].max(start + model.sender_busy(bytes));
            }
        }
    }
    Ok(ready.into_iter().max().unwrap_or(0) as f64 / 1000.0)
}

/// Simulated completion time (ns) of a pipelined multi-tree broadcast:
/// `bytes` are split across the given edge-disjoint spanning trees (from
/// `polarstar-analysis`), each chunk flooding its own tree from the
/// router actually hosting rank 0 — the in-network-collective pattern of
/// the Dawkins et al. extension.
pub fn tree_broadcast(
    model: &mut NetModel,
    trees: &[Vec<(u32, u32)>],
    bytes: u64,
    mode: RoutingMode,
) -> Result<f64, MotifError> {
    if trees.is_empty() {
        return Err(MotifError::invalid_config(
            "tree broadcast needs at least one spanning tree",
        ));
    }
    let chunk = (bytes / trees.len() as u64).max(1);
    let (root, _) = model.spec().endpoint_router(0);
    let mut done: Time = 0;
    for tree in trees {
        // BFS order the tree from rank 0's router so parents send
        // before children.
        let n = model.spec().graph.n();
        let mut children: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v) in tree {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
        let mut arrive: Vec<Time> = vec![0; n];
        let mut visited = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        visited[root as usize] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u as usize] {
                if !visited[v as usize] {
                    visited[v as usize] = true;
                    children[u as usize].push(v);
                    let t = model
                        .send_routers(u, v, chunk, arrive[u as usize], mode)
                        .map_err(|e| e.with_motif("tree_broadcast"))?;
                    arrive[v as usize] = t;
                    done = done.max(t);
                    queue.push_back(v);
                }
            }
        }
    }
    Ok(done as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netmodel::MotifConfig;
    use polarstar_graph::Graph;
    use polarstar_topo::network::NetworkSpec;

    fn model(routers: usize, p: u32) -> NetModel {
        NetModel::new(
            NetworkSpec::uniform("k", Graph::complete(routers), p),
            MotifConfig::default(),
        )
    }

    #[test]
    fn allreduce_scales_with_log_ranks() {
        // Recursive doubling over 16 ranks: 4 rounds. Time should be
        // ≳ 4 × single message time and ≪ 16 ×.
        let mut m = model(8, 2); // 16 ranks
        let t = allreduce(
            &mut m,
            AllreduceAlgo::RecursiveDoubling,
            64 * 1024,
            1,
            RoutingMode::Min,
        )
        .unwrap();
        let single = 64.0 * 1024.0 / 4.0 + 140.0; // serial + overhead+hop
        assert!(t >= 4.0 * single * 0.8, "t={t} vs 4·{single}");
        assert!(t <= 16.0 * single, "t={t}");
    }

    #[test]
    fn ring_beats_doubling_for_large_messages_on_thin_networks() {
        // On a ring topology, recursive doubling's long-distance partners
        // contend; the ring algorithm sends only neighbor chunks.
        let spec = NetworkSpec::uniform("c16", Graph::cycle(16), 1);
        let mut m1 = NetModel::new(spec.clone(), MotifConfig::default());
        let t_rd = allreduce(
            &mut m1,
            AllreduceAlgo::RecursiveDoubling,
            1 << 20,
            1,
            RoutingMode::Min,
        )
        .unwrap();
        let mut m2 = NetModel::new(spec, MotifConfig::default());
        let t_ring = allreduce(&mut m2, AllreduceAlgo::Ring, 1 << 20, 1, RoutingMode::Min).unwrap();
        assert!(t_ring < t_rd, "ring {t_ring} vs rd {t_rd}");
    }

    #[test]
    fn iterations_accumulate() {
        let mut m = model(4, 2);
        let t1 = allreduce(
            &mut m,
            AllreduceAlgo::RecursiveDoubling,
            4096,
            1,
            RoutingMode::Min,
        )
        .unwrap();
        let mut m2 = model(4, 2);
        let t10 = allreduce(
            &mut m2,
            AllreduceAlgo::RecursiveDoubling,
            4096,
            10,
            RoutingMode::Min,
        )
        .unwrap();
        assert!(t10 > 5.0 * t1, "10 iters {t10} vs 1 iter {t1}");
    }

    #[test]
    fn non_power_of_two_ranks() {
        let mut m = model(6, 1); // 6 ranks
        let t = allreduce(
            &mut m,
            AllreduceAlgo::RecursiveDoubling,
            4096,
            1,
            RoutingMode::Min,
        )
        .unwrap();
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn sweep3d_wavefront_depth() {
        // px + py − 1 diagonal steps dominate; double the grid diagonal,
        // roughly double the time.
        let mut m = model(16, 4); // 64 ranks
        let t4 = sweep3d(&mut m, 4, 4, 1024, 50.0, 1, RoutingMode::Min).unwrap();
        let mut m2 = model(16, 4);
        let t8 = sweep3d(&mut m2, 8, 8, 1024, 50.0, 1, RoutingMode::Min).unwrap();
        assert!(t8 > 1.5 * t4, "t8={t8} vs t4={t4}");
    }

    #[test]
    fn sweep3d_rejects_oversized_grid() {
        let mut m = model(2, 1);
        let r = sweep3d(&mut m, 4, 4, 64, 10.0, 1, RoutingMode::Min);
        assert!(
            matches!(r, Err(MotifError::InvalidConfig { ref reason }) if reason.contains("4×4")),
            "{r:?}"
        );
        let r = sweep3d(&mut m, 0, 3, 64, 10.0, 1, RoutingMode::Min);
        assert!(matches!(r, Err(MotifError::InvalidConfig { .. })), "{r:?}");
    }

    #[test]
    fn undersized_collectives_report_invalid_config() {
        // One endpoint total: no collective can run, none may panic.
        let mut m = model(1, 1);
        let r = allreduce(&mut m, AllreduceAlgo::Ring, 4096, 1, RoutingMode::Min);
        assert!(matches!(r, Err(MotifError::InvalidConfig { .. })), "{r:?}");
        let r = allreduce(
            &mut m,
            AllreduceAlgo::RecursiveDoubling,
            4096,
            1,
            RoutingMode::Min,
        );
        assert!(matches!(r, Err(MotifError::InvalidConfig { .. })), "{r:?}");
        let r = alltoall(&mut m, 4096, 1, RoutingMode::Min);
        assert!(matches!(r, Err(MotifError::InvalidConfig { .. })), "{r:?}");
        let r = tree_broadcast(&mut m, &[], 4096, RoutingMode::Min);
        assert!(matches!(r, Err(MotifError::InvalidConfig { .. })), "{r:?}");
    }

    #[test]
    fn adaptive_not_worse_on_congested_allreduce() {
        let spec = NetworkSpec::uniform("c12", Graph::cycle(12), 1);
        let mut m1 = NetModel::new(spec.clone(), MotifConfig::default());
        let t_min = allreduce(
            &mut m1,
            AllreduceAlgo::RecursiveDoubling,
            1 << 18,
            2,
            RoutingMode::Min,
        )
        .unwrap();
        let mut m2 = NetModel::new(spec, MotifConfig::default());
        let t_ad = allreduce(
            &mut m2,
            AllreduceAlgo::RecursiveDoubling,
            1 << 18,
            2,
            RoutingMode::Adaptive { candidates: 4 },
        )
        .unwrap();
        assert!(t_ad <= t_min * 1.05, "adaptive {t_ad} vs min {t_min}");
    }

    #[test]
    fn ring_sender_gated_on_serialization() {
        // Each rank injects 2(P−1) chunks back-to-back; its own NIC
        // (overhead + serialization per chunk) lower-bounds the
        // collective no matter how fast the fabric is.
        let spec = NetworkSpec::uniform("k8", Graph::complete(8), 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        let bytes: u64 = 1 << 20;
        let chunk = (bytes / 8).max(1);
        let floor = (2 * (8 - 1)) as f64 * m.sender_busy(chunk) as f64 / 1000.0;
        let t = allreduce(&mut m, AllreduceAlgo::Ring, bytes, 1, RoutingMode::Min).unwrap();
        assert!(t >= floor * 0.99, "t={t} below sender floor {floor}");
    }

    #[test]
    fn recursive_doubling_sender_gated_on_serialization() {
        // 8 ranks, power of two: 3 exchange rounds, each rank injecting
        // one full message per round back-to-back. Its own NIC
        // (overhead + serialization per message) lower-bounds the
        // collective no matter how fast the fabric is.
        let spec = NetworkSpec::uniform("k8", Graph::complete(8), 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        let bytes: u64 = 1 << 20;
        let floor = 3.0 * m.sender_busy(bytes) as f64 / 1000.0;
        let t = allreduce(
            &mut m,
            AllreduceAlgo::RecursiveDoubling,
            bytes,
            1,
            RoutingMode::Min,
        )
        .unwrap();
        assert!(t >= floor * 0.99, "t={t} below sender floor {floor}");
    }

    #[test]
    fn recursive_doubling_pre_post_phases_gated() {
        // 3 ranks: rank 2 folds into rank 0 (pre), one exchange round
        // between 0 and 1, then the result flows back 0 → 2 (post).
        // Rank 0 injects twice (exchange + post) after receiving the
        // fold; the fold sender's NIC plus rank 0's two injections give
        // a 3-message sender-side floor on the critical path.
        let spec = NetworkSpec::uniform("k3", Graph::complete(3), 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        let bytes: u64 = 1 << 20;
        let floor = 3.0 * m.sender_busy(bytes) as f64 / 1000.0;
        let t = allreduce(
            &mut m,
            AllreduceAlgo::RecursiveDoubling,
            bytes,
            1,
            RoutingMode::Min,
        )
        .unwrap();
        assert!(
            t >= floor * 0.99,
            "t={t} below pre/post sender floor {floor}"
        );
    }

    #[test]
    fn sweep3d_sender_gated_on_serialization() {
        // 2×2 grid: rank (0,0) injects its east and south boundary
        // messages back-to-back on one NIC, then (0,1) injects the relay
        // to (1,1) — three serialized NIC occupancies on the critical
        // path. Ungated injection would finish after only two.
        let spec = NetworkSpec::uniform("k4", Graph::complete(4), 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        let bytes: u64 = 1 << 20;
        let floor = 3.0 * m.sender_busy(bytes) as f64 / 1000.0;
        let t = sweep3d(&mut m, 2, 2, bytes, 0.0, 1, RoutingMode::Min).unwrap();
        assert!(t >= floor * 0.99, "t={t} below sender floor {floor}");
    }

    #[test]
    fn faulted_allreduce_reports_disconnection() {
        use polarstar_topo::FaultSet;
        let spec = NetworkSpec::uniform("k4", Graph::complete(4), 1)
            .with_faults(FaultSet::from_routers([2]));
        let mut m = NetModel::new(spec, MotifConfig::default());
        let r = allreduce(
            &mut m,
            AllreduceAlgo::RecursiveDoubling,
            4096,
            1,
            RoutingMode::Min,
        );
        assert!(matches!(r, Err(MotifError::Disconnected { .. })), "{r:?}");
    }
}

#[cfg(test)]
mod extension_tests {
    use super::*;
    use crate::netmodel::{MotifConfig, NetModel, RoutingMode};
    use polarstar_graph::Graph;
    use polarstar_topo::network::NetworkSpec;

    fn model(routers: usize, p: u32) -> NetModel {
        NetModel::new(
            NetworkSpec::uniform("k", Graph::complete(routers), p),
            MotifConfig::default(),
        )
    }

    #[test]
    fn alltoall_scales_linearly_in_ranks() {
        let t8 = alltoall(&mut model(4, 2), 4096, 1, RoutingMode::Min).unwrap();
        let t16 = alltoall(&mut model(8, 2), 4096, 1, RoutingMode::Min).unwrap();
        assert!(t16 > 1.5 * t8, "t16={t16} vs t8={t8}");
    }

    #[test]
    fn multi_tree_broadcast_beats_single_tree() {
        use polarstar_graph::edst::greedy_edst;
        let g = Graph::complete(10);
        let trees = greedy_edst(&g);
        assert!(trees.len() >= 2);
        let spec = NetworkSpec::uniform("k10", g, 1);
        let multi = tree_broadcast(
            &mut NetModel::new(spec.clone(), MotifConfig::default()),
            &trees,
            1 << 20,
            RoutingMode::Min,
        )
        .unwrap();
        let single = tree_broadcast(
            &mut NetModel::new(spec, MotifConfig::default()),
            &trees[..1],
            1 << 20,
            RoutingMode::Min,
        )
        .unwrap();
        assert!(multi < single, "multi {multi} vs single {single}");
    }

    #[test]
    fn broadcast_on_polarstar_trees() {
        use polarstar::design::best_config;
        use polarstar::network::PolarStarNetwork;
        use polarstar_graph::edst::greedy_edst;
        let net = PolarStarNetwork::build(best_config(9).unwrap(), 1)
            .unwrap()
            .spec;
        let trees = greedy_edst(&net.graph);
        assert!(trees.len() >= 2, "PolarStar packs ≥ 2 trees");
        let t = tree_broadcast(
            &mut NetModel::new(net, MotifConfig::default()),
            &trees,
            1 << 18,
            RoutingMode::Min,
        )
        .unwrap();
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn alltoall_sender_gated_on_serialization() {
        // P−1 rounds, one full message injected per rank per round; the
        // sender NIC alone bounds the exchange from below.
        let spec = NetworkSpec::uniform("k8", Graph::complete(8), 1);
        let mut m = NetModel::new(spec, MotifConfig::default());
        let bytes: u64 = 1 << 18;
        let floor = 7.0 * m.sender_busy(bytes) as f64 / 1000.0;
        let t = alltoall(&mut m, bytes, 1, RoutingMode::Min).unwrap();
        assert!(t >= floor * 0.99, "t={t} below sender floor {floor}");
    }

    #[test]
    fn tree_broadcast_roots_at_rank0_router() {
        // Path 0–1–2–3, one spanning tree (the path itself). When rank 0
        // lives on router 1 the flood depth is 2; rooting at router 0
        // (the old hardcoded behavior) would take depth 3.
        let g = Graph::path(4);
        let tree: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 3)];
        let at0 = NetworkSpec::new("p4-r0", g.clone(), vec![1, 1, 1, 1], (0..4).collect());
        let t_root0 = tree_broadcast(
            &mut NetModel::new(at0, MotifConfig::default()),
            std::slice::from_ref(&tree),
            1 << 16,
            RoutingMode::Min,
        )
        .unwrap();
        let at1 = NetworkSpec::new("p4-r1", g, vec![0, 1, 1, 2], (0..4).collect());
        let t_root1 = tree_broadcast(
            &mut NetModel::new(at1, MotifConfig::default()),
            std::slice::from_ref(&tree),
            1 << 16,
            RoutingMode::Min,
        )
        .unwrap();
        assert!(
            t_root1 < t_root0,
            "rooting at rank 0's router {t_root1} should beat depth-3 flood {t_root0}"
        );
    }

    #[test]
    fn faulted_broadcast_reports_disconnection() {
        use polarstar_topo::FaultSet;
        let g = Graph::path(4);
        let tree: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (2, 3)];
        let spec = NetworkSpec::uniform("p4", g, 1).with_faults(FaultSet::from_links([(1, 2)]));
        let r = tree_broadcast(
            &mut NetModel::new(spec, MotifConfig::default()),
            std::slice::from_ref(&tree),
            1 << 16,
            RoutingMode::Min,
        );
        assert!(matches!(r, Err(MotifError::Disconnected { .. })), "{r:?}");
    }
}
