//! Common descriptor connecting a router-level graph to a simulated system:
//! which routers carry endpoints, and how routers group into supernodes.

use crate::error::TopoError;
use crate::fault::FaultSet;
use crate::oracle::PortMasks;
use polarstar_graph::Graph;
use std::sync::{Arc, OnceLock};

/// How minimal routing tables should be built for a topology — carried on
/// the spec so consumers (the cycle simulator, figure binaries) no longer
/// have to pattern-match display names to pick a table discipline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Unconstrained shortest paths over the router graph.
    #[default]
    FlatMinimal,
    /// Shortest paths restricted to at most one inter-group ("global")
    /// link — BookSim's built-in Dragonfly/Megafly MIN discipline.
    HierarchicalMinimal,
}

impl RoutingPolicy {
    /// Stable label for manifests and logs.
    pub fn label(&self) -> &'static str {
        match self {
            RoutingPolicy::FlatMinimal => "flat-minimal",
            RoutingPolicy::HierarchicalMinimal => "hierarchical-minimal",
        }
    }
}

/// A network: router interconnect plus endpoint placement and grouping.
///
/// * `graph` — router-to-router links (the topology graph of §2.1);
/// * `endpoints[r]` — number of compute endpoints attached to router `r`
///   (0 for pure switches in indirect topologies like Fat-tree/Megafly);
/// * `group[r]` — supernode / group id of router `r`; flat topologies use
///   a single group per router's natural module (HyperX uses one group
///   total). Used by hierarchical traffic patterns (bit shuffle locality,
///   adversarial supernode-pair traffic of §9.6).
///
/// Two pieces of derived state are built on first use:
///
/// * the endpoint index — the prefix-sum offsets and whether every
///   router carries the same count — which a clone rebuilds; mutate
///   `endpoints` only before the first call to
///   [`NetworkSpec::endpoint_router`] / [`NetworkSpec::endpoint_offsets`];
/// * the minimal-port masks ([`NetworkSpec::port_masks`]), which clones
///   share behind one `Arc`, so every clone's consumers fill one set,
///   and which [`NetworkSpec::with_faults`] starts afresh. They are swept
///   on the graph of whichever clone asked first; since `graph` is a
///   public field, a holder that may have replaced it reads them through
///   [`NetworkSpec::checked_port_masks`], whose O(E) comparison with
///   `graph` gives a clone with a different graph masks of its own.
#[derive(Debug)]
pub struct NetworkSpec {
    /// Short display name, e.g. `"PS-IQ"`.
    pub name: String,
    /// Router interconnect.
    pub graph: Graph,
    /// Endpoints per router.
    pub endpoints: Vec<u32>,
    /// Group (supernode) id per router.
    pub group: Vec<u32>,
    /// Table discipline hint for this topology.
    routing_policy: RoutingPolicy,
    /// Failed links/routers this network currently carries (empty for a
    /// pristine network). `graph` always stays the pristine interconnect
    /// so port numbering is stable; consumers mask it through
    /// [`NetworkSpec::faults`] / [`NetworkSpec::degraded_graph`].
    faults: FaultSet,
    /// Lazily-built endpoint lookup.
    ep_index: OnceLock<EndpointIndex>,
    /// Minimal-port masks under `faults`, shared with every clone.
    port_masks: Arc<OnceLock<PortMasks>>,
}

/// What [`NetworkSpec::endpoint_router`] reads, built once from
/// `endpoints`.
#[derive(Debug)]
struct EndpointIndex {
    /// Endpoint prefix sums (length n+1).
    offsets: Vec<usize>,
    /// The count every router carries, when they all carry the same
    /// nonzero one: endpoint `ep` is then slot `ep % p` of router `ep / p`.
    per_router: Option<usize>,
}

impl Clone for NetworkSpec {
    fn clone(&self) -> Self {
        NetworkSpec {
            name: self.name.clone(),
            graph: self.graph.clone(),
            endpoints: self.endpoints.clone(),
            group: self.group.clone(),
            routing_policy: self.routing_policy,
            faults: self.faults.clone(),
            // The clone recomputes its offsets on first use...
            ep_index: OnceLock::new(),
            // ...and shares the masks.
            port_masks: Arc::clone(&self.port_masks),
        }
    }
}

impl NetworkSpec {
    /// Build a spec from its parts with the default flat routing policy.
    pub fn new(
        name: impl Into<String>,
        graph: Graph,
        endpoints: Vec<u32>,
        group: Vec<u32>,
    ) -> Self {
        NetworkSpec {
            name: name.into(),
            graph,
            endpoints,
            group,
            routing_policy: RoutingPolicy::FlatMinimal,
            faults: FaultSet::empty(),
            ep_index: OnceLock::new(),
            port_masks: Arc::default(),
        }
    }

    /// Build a spec with `p` endpoints on every router and each router its
    /// own group.
    pub fn uniform(name: impl Into<String>, graph: Graph, p: u32) -> Self {
        let n = graph.n();
        NetworkSpec::new(name, graph, vec![p; n], (0..n as u32).collect())
    }

    /// Set the routing-policy hint (builder style).
    pub fn with_policy(mut self, policy: RoutingPolicy) -> Self {
        self.routing_policy = policy;
        self
    }

    /// The table discipline this topology expects.
    pub fn routing_policy(&self) -> RoutingPolicy {
        self.routing_policy
    }

    /// Apply a fault mask (builder style). Replaces any previous mask;
    /// compose masks with [`FaultSet::union`] first if both should apply.
    /// The spec starts a fresh set of port masks, which its clones from
    /// here on share.
    pub fn with_faults(mut self, faults: FaultSet) -> Self {
        self.faults = faults;
        self.port_masks = Arc::default();
        self
    }

    /// The fault mask this network carries (empty for a pristine spec).
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The minimal-port masks of this network under its faults, created
    /// on the first call (each block swept when first read) and shared
    /// with every clone: they live as long as the last clone does.
    /// They were swept on the graph of the clone that asked first — see
    /// [`NetworkSpec::checked_port_masks`] if `graph` may have been
    /// replaced since.
    pub fn port_masks(&self) -> &PortMasks {
        self.port_masks
            .get_or_init(|| PortMasks::new(self.graph.clone(), self.faults.compile(&self.graph)))
    }

    /// [`NetworkSpec::port_masks`] after one O(E) check that they were
    /// swept on `graph`: a clone whose `graph` was replaced stops sharing
    /// and starts masks of its own.
    pub fn checked_port_masks(&mut self) -> &PortMasks {
        if !self.port_masks().routes(&self.graph) {
            self.port_masks = Arc::default();
        }
        self.port_masks()
    }

    /// Whether this network carries any faults.
    pub fn has_faults(&self) -> bool {
        !self.faults.is_empty()
    }

    /// The router graph with failed links/routers removed. Returns a copy
    /// of the pristine graph when no faults are set; vertex ids (and thus
    /// port numbering on the pristine graph) are preserved.
    pub fn degraded_graph(&self) -> Graph {
        self.faults.degraded_graph(&self.graph)
    }

    /// Number of routers.
    pub fn routers(&self) -> usize {
        self.graph.n()
    }

    /// Total endpoints across all routers.
    pub fn total_endpoints(&self) -> usize {
        self.endpoints.iter().map(|&e| e as usize).sum()
    }

    /// Network radix: max over routers of (links + endpoints).
    pub fn radix(&self) -> usize {
        (0..self.graph.n())
            .map(|r| self.graph.degree(r as u32) + self.endpoints[r] as usize)
            .max()
            .unwrap_or(0)
    }

    /// Number of distinct groups.
    pub fn num_groups(&self) -> usize {
        self.group
            .iter()
            .copied()
            .max()
            .map_or(0, |g| g as usize + 1)
    }

    /// Router ids of every group, indexed by group id.
    pub fn groups(&self) -> Vec<Vec<u32>> {
        let mut out = vec![Vec::new(); self.num_groups()];
        for (r, &g) in self.group.iter().enumerate() {
            out[g as usize].push(r as u32);
        }
        out
    }

    /// Map a global endpoint id to `(router, local_slot)`.
    ///
    /// Endpoint ids are contiguous per router (and therefore per group),
    /// matching the paper's §9.4 placement. O(1) when every router
    /// carries the same nonzero count, else O(log n) via binary search on
    /// the cached prefix sums — this sits on the per-message hot path of
    /// both simulators.
    ///
    /// # Panics
    /// If `ep` is not below [`NetworkSpec::total_endpoints`].
    pub fn endpoint_router(&self, ep: usize) -> (u32, u32) {
        let index = self.endpoint_index();
        let off = &index.offsets;
        let total = off[off.len() - 1];
        if ep >= total {
            panic!("endpoint id {ep} out of range ({total} total)");
        }
        if let Some(p) = index.per_router {
            return ((ep / p) as u32, (ep % p) as u32);
        }
        // Largest r with off[r] <= ep; off has length n+1.
        let r = off.partition_point(|&o| o <= ep) - 1;
        (r as u32, (ep - off[r]) as u32)
    }

    /// First global endpoint id on each router (length n+1 prefix sums),
    /// computed once and cached.
    pub fn endpoint_offsets(&self) -> &[usize] {
        &self.endpoint_index().offsets
    }

    fn endpoint_index(&self) -> &EndpointIndex {
        self.ep_index.get_or_init(|| {
            let mut offsets = Vec::with_capacity(self.endpoints.len() + 1);
            offsets.push(0);
            for &e in &self.endpoints {
                offsets.push(offsets.last().unwrap() + e as usize);
            }
            let per_router = match self.endpoints.split_first() {
                Some((&p, rest)) if p > 0 && rest.iter().all(|&e| e == p) => Some(p as usize),
                _ => None,
            };
            EndpointIndex {
                offsets,
                per_router,
            }
        })
    }

    /// Routers that carry at least one endpoint.
    pub fn endpoint_routers(&self) -> Vec<u32> {
        (0..self.graph.n() as u32)
            .filter(|&r| self.endpoints[r as usize] > 0)
            .collect()
    }

    /// Sanity checks used by tests: group array length, endpoint counts.
    pub fn validate(&self) -> Result<(), TopoError> {
        if self.endpoints.len() != self.graph.n() {
            return Err(TopoError::InvalidSpec("endpoints length mismatch".into()));
        }
        if self.group.len() != self.graph.n() {
            return Err(TopoError::InvalidSpec("group length mismatch".into()));
        }
        let n = self.graph.n() as u32;
        if self
            .faults
            .failed_links()
            .iter()
            .any(|&(u, v)| u >= n || v >= n)
            || self.faults.failed_routers().iter().any(|&r| r >= n)
        {
            return Err(TopoError::InvalidSpec(
                "fault set references router ids outside the graph".into(),
            ));
        }
        self.graph.validate().map_err(TopoError::InvalidSpec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_spec() {
        let s = NetworkSpec::uniform("k4", Graph::complete(4), 3);
        assert_eq!(s.routers(), 4);
        assert_eq!(s.total_endpoints(), 12);
        assert_eq!(s.radix(), 3 + 3);
        assert_eq!(s.num_groups(), 4);
        assert_eq!(s.routing_policy(), RoutingPolicy::FlatMinimal);
        s.validate().unwrap();
    }

    #[test]
    fn endpoint_mapping_contiguous() {
        let mut s = NetworkSpec::uniform("k3", Graph::complete(3), 2);
        s.endpoints = vec![2, 0, 3];
        assert_eq!(s.endpoint_router(0), (0, 0));
        assert_eq!(s.endpoint_router(1), (0, 1));
        assert_eq!(s.endpoint_router(2), (2, 0));
        assert_eq!(s.endpoint_router(4), (2, 2));
        assert_eq!(s.endpoint_offsets(), &[0, 2, 2, 5]);
        assert_eq!(s.endpoint_routers(), vec![0, 2]);
    }

    #[test]
    fn endpoint_mapping_matches_linear_scan() {
        // Binary search against the reference linear scan over an uneven
        // placement with leading/trailing zero-endpoint routers.
        let mut s = NetworkSpec::uniform("k6", Graph::complete(6), 0);
        s.endpoints = vec![0, 3, 0, 0, 2, 1];
        let mut expect = Vec::new();
        for (r, &cnt) in s.endpoints.iter().enumerate() {
            for slot in 0..cnt {
                expect.push((r as u32, slot));
            }
        }
        for (ep, &want) in expect.iter().enumerate() {
            assert_eq!(s.endpoint_router(ep), want, "endpoint {ep}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn endpoint_mapping_bounds() {
        let s = NetworkSpec::uniform("k3", Graph::complete(3), 1);
        s.endpoint_router(3);
    }

    #[test]
    fn clone_resets_offset_cache() {
        let s = NetworkSpec::uniform("k3", Graph::complete(3), 1);
        assert_eq!(s.endpoint_router(2), (2, 0)); // fill the cache
        let mut t = s.clone();
        t.endpoints = vec![0, 0, 2];
        assert_eq!(t.endpoint_router(0), (2, 0));
    }

    #[test]
    fn clones_share_port_masks_until_faults_or_a_graph_change() {
        let s = NetworkSpec::uniform("c70", Graph::cycle(70), 1);
        let t = s.clone();
        t.port_masks().destination(0); // one block through the clone
        let block = 64 * 70; // one byte a mask at degree 2
        assert_eq!(s.port_masks().swept_bytes(), block);
        let f = s.clone().with_faults(FaultSet::from_links([(0, 1)]));
        assert_eq!(f.port_masks().swept_bytes(), 0);
        let mut g = s.clone();
        g.graph = Graph::path(70);
        assert!(!g.port_masks().routes(&g.graph));
        g.checked_port_masks();
        assert!(g.port_masks().routes(&g.graph));
        assert_eq!(g.port_masks().swept_bytes(), 0);
        assert_eq!(t.port_masks().swept_bytes(), block);
    }

    #[test]
    fn policy_builder() {
        let s = NetworkSpec::uniform("k3", Graph::complete(3), 1)
            .with_policy(RoutingPolicy::HierarchicalMinimal);
        assert_eq!(s.routing_policy(), RoutingPolicy::HierarchicalMinimal);
        assert_eq!(s.routing_policy().label(), "hierarchical-minimal");
        // Clones keep the hint.
        assert_eq!(
            s.clone().routing_policy(),
            RoutingPolicy::HierarchicalMinimal
        );
    }

    #[test]
    fn faults_builder_and_degraded_view() {
        let s = NetworkSpec::uniform("k4", Graph::complete(4), 1);
        assert!(!s.has_faults());
        assert_eq!(s.degraded_graph().m(), 6);
        let f = FaultSet::from_links([(0, 1), (2, 3)]);
        let s = s.with_faults(f.clone());
        assert!(s.has_faults());
        assert_eq!(s.faults(), &f);
        let d = s.degraded_graph();
        assert_eq!(d.m(), 4);
        assert!(!d.has_edge(0, 1) && !d.has_edge(2, 3));
        // Clones keep the mask.
        assert!(s.clone().has_faults());
        s.validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range_faults() {
        let s = NetworkSpec::uniform("k3", Graph::complete(3), 1)
            .with_faults(FaultSet::from_links([(0, 9)]));
        assert!(s.validate().is_err());
        let s = NetworkSpec::uniform("k3", Graph::complete(3), 1)
            .with_faults(FaultSet::from_routers([7]));
        assert!(s.validate().is_err());
    }

    #[test]
    fn groups_collect() {
        let mut s = NetworkSpec::uniform("k4", Graph::complete(4), 1);
        s.group = vec![0, 0, 1, 1];
        let gs = s.groups();
        assert_eq!(gs.len(), 2);
        assert_eq!(gs[0], vec![0, 1]);
        assert_eq!(gs[1], vec![2, 3]);
    }
}
