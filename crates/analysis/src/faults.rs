//! Fault tolerance under random link failures (Figure 14, §11.2).
//!
//! We remove random links in fixed increments until the endpoint-visible
//! network disconnects, recording diameter and average shortest-path
//! length over the pairs that remain connected. Following the paper, for
//! indirect topologies only distances between routers that carry
//! endpoints are considered, 100 trajectories are sampled, and the
//! trajectory with the median disconnection ratio is reported.
//!
//! Link failures come from [`polarstar_topo::fault::FaultSet`]'s seeded
//! shuffled-prefix sampler, shared with the simulators' fault sweeps and
//! live bursts: a graph-metric trajectory at seed `s` fails exactly the
//! links a simulated burst at the same seed and fraction does.

use polarstar_graph::csr::{Graph, VertexId};
use polarstar_graph::traversal;
use polarstar_topo::fault::{FaultMask, FaultSet};
use rayon::prelude::*;

/// Metrics at one failure level.
#[derive(Clone, Debug)]
pub struct FaultStep {
    /// Fraction of links removed.
    pub failed_fraction: f64,
    /// Max distance over still-connected relevant pairs.
    pub diameter: Option<u32>,
    /// Mean distance over still-connected relevant pairs.
    pub avg_path_length: Option<f64>,
    /// Whether all relevant pairs remain connected.
    pub connected: bool,
}

/// A full failure trajectory plus its disconnection ratio (fraction of
/// links removed when some relevant pair first disconnects).
#[derive(Clone, Debug)]
pub struct FaultTrajectory {
    /// Metrics at each sampled failure level, ascending.
    pub steps: Vec<FaultStep>,
    /// First failure fraction at which the relevant set disconnects.
    pub disconnection_ratio: f64,
}

/// Run one failure trajectory: remove seeded random link prefixes of
/// increasing size (`step_fraction` granularity), measuring restricted
/// metrics from up to `max_sources` relevant vertices.
///
/// Failures are drawn through [`FaultSet::random_links`] — the same
/// sampler the simulators' static fault sweeps and live fault bursts
/// use — so at a shared seed the failed link sets nest across all three.
pub fn fault_trajectory(
    g: &Graph,
    relevant: &[VertexId],
    step_fraction: f64,
    max_sources: usize,
    seed: u64,
) -> FaultTrajectory {
    assert!(step_fraction > 0.0 && step_fraction < 1.0);
    let mut steps = Vec::new();
    let mut disconnection = 1.0;
    let mut frac = 0.0;
    loop {
        let mask = FaultSet::random_links(g, frac, seed).compile(g);
        let (diam, apl, connected) = masked_metrics(g, &mask, relevant, max_sources);
        steps.push(FaultStep {
            failed_fraction: frac,
            diameter: diam,
            avg_path_length: apl,
            connected,
        });
        if !connected {
            disconnection = frac;
            break;
        }
        if frac >= 1.0 - step_fraction / 2.0 {
            break;
        }
        frac = (frac + step_fraction).min(1.0);
    }
    FaultTrajectory {
        steps,
        disconnection_ratio: disconnection,
    }
}

/// Diameter / APL restricted to `relevant` pairs, sampling up to
/// `max_sources` BFS sources for tractability; `connected` is exact over
/// the sampled sources.
///
/// # Panics
/// If a relevant id is not a vertex of `g`.
pub fn restricted_metrics(
    g: &Graph,
    relevant: &[VertexId],
    max_sources: usize,
) -> (Option<u32>, Option<f64>, bool) {
    masked_metrics(g, &FaultMask::default(), relevant, max_sources)
}

/// [`restricted_metrics`] over `g` minus the cables `mask` takes out of
/// the distance relation: the sampled sources swept 64 at a time, blocks
/// in parallel. Diameter, distance sum and pair count are integers, so
/// the result is the same at any width and equal to one BFS per source
/// over the degraded graph.
fn masked_metrics(
    g: &Graph,
    mask: &FaultMask,
    relevant: &[VertexId],
    max_sources: usize,
) -> (Option<u32>, Option<f64>, bool) {
    let n = g.n();
    // How often each router is listed: a pair counts once per listing.
    let mut weight = vec![0u64; n];
    for &t in relevant {
        assert!((t as usize) < n, "relevant {t} not in a {n}-router graph");
        weight[t as usize] += 1;
    }
    let stride = (relevant.len() / max_sources.max(1)).max(1);
    let sources: Vec<VertexId> = relevant.iter().copied().step_by(stride).collect();
    let blocks: Vec<&[VertexId]> = sources.chunks(64).collect();
    let (dmax, total, count) = blocks
        .into_par_iter()
        .map(|block| {
            let (mut dmax, mut sum, mut cnt) = (0u32, 0u64, 0u64);
            let live = |_, e, _| !mask.edge_dead(e);
            traversal::sweep_block(g, block, &[], u32::MAX, live, |d, v, fresh, _| {
                let pairs = weight[v as usize] * u64::from(fresh.count_ones());
                if pairs > 0 {
                    dmax = dmax.max(d);
                    sum += pairs * u64::from(d);
                    cnt += pairs;
                }
            });
            (dmax, sum, cnt)
        })
        .reduce(|| (0, 0, 0), |a, b| (a.0.max(b.0), a.1 + b.1, a.2 + b.2));
    // Every relevant router other than the source itself, per source.
    let pairs: u64 = sources
        .iter()
        .map(|&s| relevant.len() as u64 - weight[s as usize])
        .sum();
    let diam = (count > 0).then_some(dmax);
    let apl = (count > 0).then(|| total as f64 / count as f64);
    (diam, apl, count == pairs)
}

/// Run `trials` trajectories and return the one with the median
/// disconnection ratio, plus all ratios (paper: 100 scenarios, median
/// reported).
pub fn median_trajectory(
    g: &Graph,
    relevant: &[VertexId],
    step_fraction: f64,
    max_sources: usize,
    trials: usize,
    seed: u64,
) -> (FaultTrajectory, Vec<f64>) {
    let mut trajectories: Vec<FaultTrajectory> = (0..trials)
        .into_par_iter()
        .map(|t| fault_trajectory(g, relevant, step_fraction, max_sources, seed + t as u64))
        .collect();
    trajectories.sort_by(|a, b| {
        a.disconnection_ratio
            .partial_cmp(&b.disconnection_ratio)
            .unwrap()
    });
    let ratios: Vec<f64> = trajectories.iter().map(|t| t.disconnection_ratio).collect();
    let median = trajectories.swap_remove(trajectories.len() / 2);
    (median, ratios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;

    #[test]
    fn pristine_metrics_match_traversal() {
        let g = Graph::cycle(10);
        let all: Vec<u32> = (0..10).collect();
        let (diam, apl, connected) = restricted_metrics(&g, &all, 10);
        assert!(connected);
        assert_eq!(diam, Some(5));
        assert!((apl.unwrap() - traversal::avg_path_length(&g).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn restriction_ignores_irrelevant_vertices() {
        // Path 0-1-2-3: restrict to {0, 1}: diameter 1.
        let g = Graph::path(4);
        let (diam, _, connected) = restricted_metrics(&g, &[0, 1], 2);
        assert!(connected);
        assert_eq!(diam, Some(1));
    }

    #[test]
    fn masked_metrics_equal_one_bfs_per_source_on_the_degraded_graph() {
        // 150 routers, 130 relevant (one listed twice), 70 sources: two
        // blocks, under link failures heavy enough to disconnect.
        let g = polarstar_graph::random::random_regular(150, 3, 5).unwrap();
        let mut relevant: Vec<u32> = (10..140).collect();
        relevant.push(17);
        for frac in [0.0, 0.1, 0.3] {
            let faults = FaultSet::random_links(&g, frac, 9);
            let h = faults.degraded_graph(&g);
            let stride = (relevant.len() / 70).max(1);
            let (mut dmax, mut sum, mut cnt, mut ok) = (0, 0u64, 0u64, true);
            for &s in relevant.iter().step_by(stride) {
                let dist = traversal::bfs_distances(&h, s);
                for &t in relevant.iter().filter(|&&t| t != s) {
                    match dist[t as usize] {
                        traversal::UNREACHABLE => ok = false,
                        d => (dmax, sum, cnt) = (dmax.max(d), sum + u64::from(d), cnt + 1),
                    }
                }
            }
            let want = (
                (cnt > 0).then_some(dmax),
                (cnt > 0).then(|| sum as f64 / cnt as f64),
                ok,
            );
            let got = masked_metrics(&g, &faults.compile(&g), &relevant, 70);
            assert_eq!(got, want, "{frac}");
        }
    }

    #[test]
    #[should_panic(expected = "relevant 12 not in a 10-router graph")]
    fn a_relevant_id_past_the_graph_is_named() {
        restricted_metrics(&Graph::cycle(10), &[0, 12], 2);
    }

    #[test]
    fn trajectory_ends_disconnected() {
        let g = Graph::cycle(12);
        let all: Vec<u32> = (0..12).collect();
        let t = fault_trajectory(&g, &all, 0.1, 12, 42);
        assert!(!t.steps.last().unwrap().connected);
        assert!(t.disconnection_ratio > 0.0 && t.disconnection_ratio <= 1.0);
        // Cycle disconnects as soon as 2 edges go: ratio ≤ ~0.2 typically.
        assert!(t.disconnection_ratio <= 0.5);
        // Monotone failure fractions.
        for w in t.steps.windows(2) {
            assert!(w[1].failed_fraction > w[0].failed_fraction);
        }
    }

    #[test]
    fn dense_graphs_survive_longer_than_sparse() {
        let sparse = Graph::cycle(16);
        let dense = Graph::complete(16);
        let all: Vec<u32> = (0..16).collect();
        let (_, sparse_ratios) = median_trajectory(&sparse, &all, 0.1, 16, 9, 1);
        let (_, dense_ratios) = median_trajectory(&dense, &all, 0.1, 16, 9, 1);
        let med = |v: &Vec<f64>| v[v.len() / 2];
        assert!(
            med(&dense_ratios) > med(&sparse_ratios),
            "dense {dense_ratios:?} vs sparse {sparse_ratios:?}"
        );
    }

    #[test]
    fn diameter_grows_with_failures() {
        // On a richly-connected graph, knocking out links at the median
        // trajectory should not shrink the diameter.
        let g = polarstar_graph::random::random_regular(40, 6, 2).unwrap();
        let all: Vec<u32> = (0..40).collect();
        let t = fault_trajectory(&g, &all, 0.1, 40, 3);
        let connected_steps: Vec<&FaultStep> = t.steps.iter().filter(|s| s.connected).collect();
        assert!(
            connected_steps.len() >= 2,
            "should survive at least one step"
        );
        let first = connected_steps.first().unwrap();
        let last = connected_steps.last().unwrap();
        assert!(last.avg_path_length.unwrap() >= first.avg_path_length.unwrap());
    }
}
