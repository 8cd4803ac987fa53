//! Synthetic traffic patterns (§9.4) and the adversarial supernode-pair
//! pattern (§9.6).
//!
//! Patterns are resolved to a per-endpoint destination function over the
//! global endpoint id space. As in the paper, endpoint ids are contiguous
//! per router and per group, so bit-permutation patterns interact with
//! the topology's hierarchy exactly as described (e.g. under Bit Shuffle
//! almost all endpoints in a supernode talk to two other supernodes).

use polarstar_graph::traversal::sweep_block;
use polarstar_topo::network::NetworkSpec;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A synthetic traffic pattern.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Pattern {
    /// Each packet's destination endpoint is uniform random (≠ source).
    Uniform,
    /// A fixed random permutation τ of routers; endpoints map to the
    /// corresponding endpoint slot on τ(router).
    Permutation,
    /// dᵢ = s₍ᵢ₋₁ mod b₎ over the largest power-of-two endpoint subset.
    BitShuffle,
    /// dᵢ = s₍b₋ᵢ₋₁₎ over the largest power-of-two endpoint subset.
    BitReverse,
    /// Every group sends to exactly one other group, chosen to maximize
    /// router distance (forcing maximal-length minimal paths, §9.6).
    AdversarialGroup,
}

impl Pattern {
    /// Display name used by the benchmark harness.
    pub fn label(&self) -> &'static str {
        match self {
            Pattern::Uniform => "uniform",
            Pattern::Permutation => "permutation",
            Pattern::BitShuffle => "bitshuffle",
            Pattern::BitReverse => "bitreverse",
            Pattern::AdversarialGroup => "adversarial",
        }
    }
}

/// A resolved pattern: which endpoints are active, and each active
/// endpoint's fixed destination (`None` = fresh uniform draw per packet).
pub struct ResolvedPattern {
    /// Fixed destination per endpoint (self-maps mark inactive sources).
    pub dest: Option<Vec<u32>>,
    /// Number of endpoints participating (senders).
    pub active: usize,
    /// Total endpoints in the system.
    pub total: usize,
}

impl ResolvedPattern {
    /// Destination endpoint for a packet from `src`, drawing from `rng`
    /// only for the uniform pattern. Returns `None` when `src` does not
    /// transmit under this pattern — under uniform traffic, when no
    /// endpoint but `src` exists.
    #[inline]
    pub fn destination(&self, src: u32, rng: &mut impl Rng) -> Option<u32> {
        match &self.dest {
            None if self.active == 0 => None,
            None => {
                // Uniform: any endpoint but self.
                let mut d = rng.gen_range(0..self.total as u32 - 1);
                if d >= src {
                    d += 1;
                }
                Some(d)
            }
            Some(map) => {
                let d = map[src as usize];
                (d != src).then_some(d)
            }
        }
    }
}

/// The traffic-resolution seed the cycle engine derives from
/// [`SimConfig::seed`](crate::engine::SimConfig::seed). Resolving a
/// pattern with `engine_resolve_seed(cfg.seed)` reproduces the exact
/// pattern map a `simulate(.., cfg)` run routes — how the flow-level
/// model ([`crate::flow`]) cross-validates against the engine on
/// identical traffic.
pub fn engine_resolve_seed(sim_seed: u64) -> u64 {
    sim_seed ^ 0x7a11
}

/// The per-flow `(src, dst)` endpoint pairs a flow-level build routes:
/// one flow per active endpoint, destinations drawn exactly as
/// [`ResolvedPattern::destination`] draws them (a single sequential
/// ChaCha8 stream for the uniform pattern, the resolved map otherwise).
///
/// This is the flow model's traffic contract with the cycle engine:
/// called with `engine_resolve_seed(cfg.seed)`, the pair list matches
/// the engine's resolved destination map endpoint for endpoint (pinned
/// by `resolve_flows_pins_the_engine_seed_contract`).
pub fn resolve_flows(pattern: &Pattern, spec: &NetworkSpec, seed: u64) -> Vec<(u32, u32)> {
    let resolved = resolve(pattern, spec, seed);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..resolved.total as u32)
        .filter_map(|src| Some((src, resolved.destination(src, &mut rng)?)))
        .collect()
}

/// Resolve a pattern against a network (deterministic in `seed`).
pub fn resolve(pattern: &Pattern, spec: &NetworkSpec, seed: u64) -> ResolvedPattern {
    let total = spec.total_endpoints();
    match pattern {
        // With fewer than two endpoints no source has a destination.
        Pattern::Uniform => ResolvedPattern {
            dest: None,
            active: if total < 2 { 0 } else { total },
            total,
        },
        Pattern::Permutation => {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            // Permute endpoint-carrying routers; endpoint k on router r
            // maps to endpoint k on τ(r).
            let routers = spec.endpoint_routers();
            let mut tau: Vec<u32> = routers.clone();
            tau.shuffle(&mut rng);
            let router_to_tau: std::collections::HashMap<u32, u32> =
                routers.iter().copied().zip(tau.iter().copied()).collect();
            let offsets = spec.endpoint_offsets();
            let mut dest = vec![0u32; total];
            for (e, d) in dest.iter_mut().enumerate() {
                let (r, slot) = spec.endpoint_router(e);
                let tr = router_to_tau[&r];
                // Slot wraps if τ(r) has fewer endpoints (doesn't happen
                // in the evaluated configs, but stay safe).
                let cnt = spec.endpoints[tr as usize].max(1);
                *d = (offsets[tr as usize] + (slot % cnt) as usize) as u32;
            }
            ResolvedPattern {
                dest: Some(dest),
                active: total,
                total,
            }
        }
        Pattern::BitShuffle | Pattern::BitReverse => {
            // Largest power of two ≤ total (§9.4: 2^b endpoints).
            let bits = if total.is_power_of_two() {
                total.trailing_zeros() as usize
            } else {
                (usize::BITS - total.leading_zeros() - 1) as usize
            };
            let m = 1usize << bits;
            let mut dest: Vec<u32> = (0..total as u32).collect(); // self = inactive
            let mut active = 0;
            for (s, slot) in dest.iter_mut().enumerate().take(m) {
                let d = match pattern {
                    Pattern::BitShuffle => ((s << 1) | (s >> (bits - 1))) & (m - 1),
                    Pattern::BitReverse => {
                        let mut v = 0usize;
                        for i in 0..bits {
                            if s >> i & 1 == 1 {
                                v |= 1 << (bits - i - 1);
                            }
                        }
                        v
                    }
                    _ => unreachable!(),
                };
                if d != s {
                    *slot = d as u32;
                    active += 1;
                }
            }
            ResolvedPattern {
                dest: Some(dest),
                active,
                total,
            }
        }
        Pattern::AdversarialGroup => {
            let groups = spec.groups();
            let g_count = groups.len();
            let dist = group_distance_matrix(spec, &groups);
            let offsets = spec.endpoint_offsets();
            // §9.6: every group sends to exactly one other group so that
            // the inter-group links between the pair carry all traffic.
            // For each group we target a directly-linked group with the
            // FEWEST direct links (the scarcest bundle — one link in
            // DF/MF, one supernode bundle in PS/BF), greedily balancing
            // receivers to avoid incast; groups with no direct links to
            // any endpoint-carrying group fall back to the farthest one.
            let links = group_link_matrix(spec, g_count);
            let mut in_count = vec![0usize; g_count];
            let mut targets = vec![0usize; g_count];
            for g in 0..g_count {
                let candidate = (0..g_count)
                    .filter(|&h| {
                        h != g && links[g][h] > 0 && group_endpoint_count(spec, &groups[h]) > 0
                    })
                    .min_by_key(|&h| (in_count[h], links[g][h], std::cmp::Reverse(dist[g][h])));
                let target = candidate.unwrap_or_else(|| {
                    (0..g_count)
                        .filter(|&h| h != g && group_endpoint_count(spec, &groups[h]) > 0)
                        .min_by_key(|&h| (in_count[h], std::cmp::Reverse(dist[g][h])))
                        .unwrap_or((g + 1) % g_count)
                });
                in_count[target] += 1;
                targets[g] = target;
            }
            let mut dest = vec![0u32; total];
            for (g, members) in groups.iter().enumerate() {
                let target = targets[g];
                // Gather endpoint slots of source and target groups.
                let src_eps = group_endpoints(spec, members, offsets);
                let dst_eps = group_endpoints(spec, &groups[target], offsets);
                for (k, &e) in src_eps.iter().enumerate() {
                    if dst_eps.is_empty() {
                        dest[e as usize] = e; // inactive
                    } else {
                        dest[e as usize] = dst_eps[k % dst_eps.len()];
                    }
                }
            }
            let active = dest
                .iter()
                .enumerate()
                .filter(|&(i, &d)| d != i as u32)
                .count();
            ResolvedPattern {
                dest: Some(dest),
                active,
                total,
            }
        }
    }
}

fn group_endpoints(spec: &NetworkSpec, members: &[u32], offsets: &[usize]) -> Vec<u32> {
    let mut out = Vec::new();
    for &r in members {
        for k in 0..spec.endpoints[r as usize] {
            out.push((offsets[r as usize] + k as usize) as u32);
        }
    }
    out
}

fn group_endpoint_count(spec: &NetworkSpec, members: &[u32]) -> usize {
    members
        .iter()
        .map(|&r| spec.endpoints[r as usize] as usize)
        .sum()
}

/// Direct link counts between groups.
fn group_link_matrix(spec: &NetworkSpec, g_count: usize) -> Vec<Vec<usize>> {
    let mut links = vec![vec![0usize; g_count]; g_count];
    for (u, v) in spec.graph.edges() {
        let (gu, gv) = (
            spec.group[u as usize] as usize,
            spec.group[v as usize] as usize,
        );
        if gu != gv {
            links[gu][gv] += 1;
            links[gv][gu] += 1;
        }
    }
    links
}

/// Max router-distance between groups (coarse; used to pick adversarial
/// victims): from each group's first member to the members of every
/// group, `u16::MAX` when one is never reached.
fn group_distance_matrix(spec: &NetworkSpec, groups: &[Vec<u32>]) -> Vec<Vec<u16>> {
    let (g, n) = (&spec.graph, spec.graph.n());
    let mut dist = Vec::with_capacity(groups.len());
    // One 64-representative block sweep fills 64 rows of the matrix.
    for block in groups.chunks(64) {
        let reps: Vec<u32> = block.iter().map(|members| members[0]).collect();
        let mut rows = vec![u32::MAX; reps.len() * n];
        for (i, &rep) in reps.iter().enumerate() {
            rows[i * n + rep as usize] = 0;
        }
        let write = |level, v: u32, mut fresh: u64, _: &[u64]| {
            while fresh != 0 {
                rows[fresh.trailing_zeros() as usize * n + v as usize] = level;
                fresh &= fresh - 1;
            }
        };
        sweep_block(g, &reps, &[], u32::MAX, |_, _, _| true, write);
        for d in rows.chunks(n) {
            let far = |members: &Vec<u32>| members.iter().map(|&r| d[r as usize]).max();
            let row = groups
                .iter()
                .map(|h| far(h).unwrap_or(0).min(u16::MAX.into()) as u16);
            dist.push(row.collect());
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;
    use polarstar_topo::dragonfly::{dragonfly, DragonflyParams};

    fn toy_spec() -> NetworkSpec {
        NetworkSpec::uniform("toy", Graph::complete(4), 4) // 16 endpoints
    }

    #[test]
    fn group_distances_equal_one_bfs_per_representative() {
        // 67 groups of three along a path, so two representative
        // blocks, plus a lone router the last group never reaches.
        let g = Graph::path(201).disjoint_union(&Graph::empty(1));
        let group = (0..202).map(|r| (r / 3).min(66)).collect();
        let spec = NetworkSpec::new("path", g, vec![1; 202], group);
        let groups = spec.groups();
        let dist = group_distance_matrix(&spec, &groups);
        assert_eq!(dist.len(), 67);
        for (row, members) in dist.iter().zip(&groups) {
            let d = polarstar_graph::traversal::bfs_distances(&spec.graph, members[0]);
            let far = |h: &Vec<u32>| h.iter().map(|&r| d[r as usize].min(65_535) as u16).max();
            let want: Vec<u16> = groups.iter().map(|h| far(h).unwrap()).collect();
            assert_eq!(*row, want);
            assert_eq!(row[66], u16::MAX, "the lone router is never reached");
        }
    }

    #[test]
    fn uniform_never_self() {
        let spec = toy_spec();
        let r = resolve(&Pattern::Uniform, &spec, 1);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for src in 0..16u32 {
            for _ in 0..50 {
                let d = r.destination(src, &mut rng).unwrap();
                assert_ne!(d, src);
                assert!(d < 16);
            }
        }
    }

    #[test]
    fn permutation_is_router_level_bijection() {
        let spec = toy_spec();
        let r = resolve(&Pattern::Permutation, &spec, 7);
        let map = r.dest.as_ref().unwrap();
        // Destinations partition endpoints: bijection on the active set.
        let mut seen = [false; 16];
        for &d in map {
            assert!(!seen[d as usize], "duplicate destination {d}");
            seen[d as usize] = true;
        }
        // Corresponding slots: endpoint e on router r goes to same slot.
        for (e, &d) in map.iter().enumerate() {
            assert_eq!(d % 4, e as u32 % 4, "slot preserved");
        }
    }

    #[test]
    fn bitshuffle_rotates_bits() {
        let spec = toy_spec(); // 16 endpoints = 4 bits
        let r = resolve(&Pattern::BitShuffle, &spec, 0);
        let map = r.dest.as_ref().unwrap();
        // s = 0b0011 → 0b0110.
        assert_eq!(map[0b0011], 0b0110);
        assert_eq!(map[0b1000], 0b0001);
        // Fixed points of the rotation (0b0000, 0b1111) are inactive.
        assert_eq!(map[0], 0);
        assert_eq!(map[15], 15);
        assert_eq!(r.active, 14);
    }

    #[test]
    fn bitreverse_reverses_bits() {
        let spec = toy_spec();
        let r = resolve(&Pattern::BitReverse, &spec, 0);
        let map = r.dest.as_ref().unwrap();
        assert_eq!(map[0b0001], 0b1000);
        assert_eq!(map[0b1011], 0b1101);
        assert_eq!(map[0b0110], 0b0110); // palindrome → inactive
    }

    #[test]
    fn bit_patterns_use_power_of_two_subset() {
        // 5 routers × 3 endpoints = 15 → 8 active slots (3 bits).
        let spec = NetworkSpec::uniform("odd", Graph::complete(5), 3);
        let r = resolve(&Pattern::BitShuffle, &spec, 0);
        let map = r.dest.as_ref().unwrap();
        for (e, &d) in map.iter().enumerate().take(15).skip(8) {
            assert_eq!(d, e as u32, "endpoints ≥ 8 are inactive");
        }
    }

    #[test]
    fn adversarial_targets_single_group() {
        let spec = dragonfly(DragonflyParams { a: 4, h: 2, p: 2 });
        let r = resolve(&Pattern::AdversarialGroup, &spec, 0);
        let map = r.dest.as_ref().unwrap();
        let offsets = spec.endpoint_offsets();
        let groups = spec.groups();
        for (g, members) in groups.iter().enumerate() {
            let mut targets = std::collections::HashSet::new();
            for &router in members {
                for k in 0..spec.endpoints[router as usize] {
                    let e = offsets[router as usize] + k as usize;
                    let d = map[e];
                    let (dr, _) = spec.endpoint_router(d as usize);
                    targets.insert(spec.group[dr as usize]);
                }
            }
            assert_eq!(targets.len(), 1, "group {g} must target exactly one group");
            assert!(
                !targets.contains(&(g as u32)),
                "group {g} must not self-target"
            );
        }
    }

    #[test]
    fn resolve_flows_pins_the_engine_seed_contract() {
        // The seed derivation itself is part of the contract: the cycle
        // engine resolves traffic at `sim_seed ^ 0x7a11`.
        assert_eq!(engine_resolve_seed(0), 0x7a11);
        assert_eq!(engine_resolve_seed(0x7a11), 0);
        let spec = toy_spec();
        let patterns = [
            Pattern::Uniform,
            Pattern::Permutation,
            Pattern::BitShuffle,
            Pattern::BitReverse,
            Pattern::AdversarialGroup,
        ];
        for pattern in &patterns {
            for sim_seed in [0u64, 9, 77] {
                let seed = engine_resolve_seed(sim_seed);
                let flows = resolve_flows(pattern, &spec, seed);
                let resolved = resolve(pattern, &spec, seed);
                let expect: Vec<(u32, u32)> = match &resolved.dest {
                    // Map patterns: exactly the engine's resolved map,
                    // self-maps (inactive sources) filtered out.
                    Some(map) => map
                        .iter()
                        .enumerate()
                        .filter(|&(s, &d)| d != s as u32)
                        .map(|(s, &d)| (s as u32, d))
                        .collect(),
                    // Uniform: one sequential ChaCha8 draw per endpoint
                    // (the flow model's sampled snapshot).
                    None => {
                        let mut rng = ChaCha8Rng::seed_from_u64(seed);
                        (0..resolved.total as u32)
                            .map(|s| (s, resolved.destination(s, &mut rng).unwrap()))
                            .collect()
                    }
                };
                // (No `active` comparison: Permutation counts every
                // endpoint active even when τ fixes its router, and
                // those self-maps are filtered at draw time.)
                assert_eq!(flows, expect, "{} seed {sim_seed}", pattern.label());
            }
        }
    }

    #[test]
    fn bit_patterns_on_power_of_two_bitcount() {
        // Exact power of two total: all endpoints considered.
        let spec = NetworkSpec::uniform("p2", Graph::complete(4), 4);
        assert_eq!(spec.total_endpoints(), 16);
        let r = resolve(&Pattern::BitReverse, &spec, 0);
        assert!(r.active > 0);
    }

    #[test]
    fn uniform_with_one_endpoint_sends_nothing() {
        // A valid network whose only endpoint has no one to send to: both
        // entry points that resolve uniform traffic run empty.
        use crate::{simulate, FlowNetwork, FlowRouting, RouteTable, RoutingKind, SimConfig};
        let spec = NetworkSpec::new("k2", Graph::complete(2), vec![1, 0], vec![0, 1]);
        assert!(spec.validate().is_ok());
        let r = resolve(&Pattern::Uniform, &spec, 0);
        assert_eq!((r.active, r.total), (0, 1));
        assert_eq!(r.destination(0, &mut ChaCha8Rng::seed_from_u64(0)), None);
        let table = RouteTable::for_spec(&spec);
        let flows = FlowNetwork::build(&spec, &table, &Pattern::Uniform, 0, FlowRouting::EcmpSplit);
        assert_eq!(flows.num_flows(), 0);
        let cfg = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 200,
            drain_cycles: 100,
            ..SimConfig::default()
        };
        let got = simulate(
            &spec,
            &table,
            RoutingKind::MinMulti,
            &Pattern::Uniform,
            0.5,
            &cfg,
        );
        assert_eq!((got.measured_ejected, got.unroutable), (0, 0), "{got:?}");
    }
}

#[cfg(test)]
mod polarstar_pattern_tests {
    use super::*;
    use polarstar::design::best_config;
    use polarstar::network::PolarStarNetwork;

    /// Adversarial traffic on a real PolarStar: every supernode sends to
    /// exactly one adjacent supernode, with balanced receivers (§9.6).
    #[test]
    fn adversarial_on_polarstar_targets_adjacent_supernodes() {
        let net = PolarStarNetwork::build(best_config(9).unwrap(), 2).unwrap();
        let spec = &net.spec;
        let r = resolve(&Pattern::AdversarialGroup, spec, 0);
        let map = r.dest.as_ref().unwrap();
        let offsets = spec.endpoint_offsets();
        let groups = spec.groups();
        let mut in_count = vec![0usize; groups.len()];
        for (g, members) in groups.iter().enumerate() {
            let mut targets = std::collections::HashSet::new();
            for &router in members {
                for k in 0..spec.endpoints[router as usize] {
                    let e = offsets[router as usize] + k as usize;
                    let (dr, _) = spec.endpoint_router(map[e] as usize);
                    targets.insert(spec.group[dr as usize] as usize);
                }
            }
            assert_eq!(
                targets.len(),
                1,
                "supernode {g} has {} targets",
                targets.len()
            );
            let t = *targets.iter().next().unwrap();
            assert_ne!(t, g);
            in_count[t] += 1;
            // Adjacent in the structure graph: a direct bundle exists.
            assert!(
                net.er.graph.has_edge(g as u32, t as u32),
                "supernode {g} must target an adjacent supernode, got {t}"
            );
        }
        // Receive balance: no incast.
        assert!(in_count.iter().all(|&c| c <= 2), "in-counts {in_count:?}");
    }
}
