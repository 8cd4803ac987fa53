//! The serving oracle: a routing backend (CSR [`RouteTable`] snapshot or
//! the table-free [`AnalyticOracle`]) plus supernode symmetry classes,
//! packaged for concurrent query answering.

use crate::analytic::AnalyticOracle;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::RouteTable;
use polarstar_topo::fault::FaultSet;
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::oracle::{PathOracle, RouteError};
use std::sync::Arc;

/// Canonicalization of ordered (src, dst) router pairs through the
/// topology's supernode structure.
///
/// Two pairs share a class when their endpoints sit in the same ordered
/// (group, group) cell — on a vertex-transitive star product every pair
/// of a class sees the same inter-supernode route shape, so per-class
/// aggregates (G² cells) stand in for per-pair state (n² cells). On
/// PS-IQ (1064 routers, 56 supernodes) that is a 361× reduction.
#[derive(Clone, Debug)]
pub struct SymmetryClasses {
    /// Supernode id per router (shared with the spec).
    group: Vec<u32>,
    /// Number of supernodes `G`; classes are `G²` ordered cells plus the
    /// implicit diagonal refinement below.
    num_groups: u32,
}

impl SymmetryClasses {
    /// Derive the classes from a spec's group structure.
    pub fn new(spec: &NetworkSpec) -> Self {
        SymmetryClasses {
            group: spec.group.clone(),
            num_groups: spec.num_groups() as u32,
        }
    }

    /// Number of classes (`G²`: ordered supernode cells).
    pub fn num_classes(&self) -> usize {
        (self.num_groups as usize).pow(2)
    }

    /// The canonical class of an ordered router pair: the ordered
    /// (supernode, supernode) cell index `g_src · G + g_dst`.
    #[inline]
    pub fn class_of(&self, src: u32, dst: u32) -> u32 {
        self.group[src as usize] * self.num_groups + self.group[dst as usize]
    }

    /// Supernode id of one router.
    #[inline]
    pub fn group_of(&self, r: u32) -> u32 {
        self.group[r as usize]
    }

    /// Canonicalize a set of ordered router pairs into class-level
    /// occupancy counts — the compression the class-batched flow build
    /// rides on (`FlowNetwork` dedups to unique pairs; this reports how
    /// those pairs collapse further onto `G²` supernode cells).
    ///
    /// Duplicate pairs in the input count once: the census describes
    /// the *unique* pair set, matching the build's dedup.
    pub fn pair_census(&self, pairs: impl IntoIterator<Item = (u32, u32)>) -> PairCensus {
        let mut unique: Vec<(u32, u32)> = pairs.into_iter().collect();
        unique.sort_unstable();
        unique.dedup();
        let mut per_class = vec![0u64; self.num_classes()];
        for &(s, d) in &unique {
            per_class[self.class_of(s, d) as usize] += 1;
        }
        let classes_hit = per_class.iter().filter(|&&c| c > 0).count();
        let max_class_pairs = per_class.iter().copied().max().unwrap_or(0);
        PairCensus {
            unique_pairs: unique.len(),
            classes_hit,
            num_classes: self.num_classes(),
            max_class_pairs,
        }
    }
}

/// How a set of router pairs occupies the `G²` symmetry cells (from
/// [`SymmetryClasses::pair_census`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairCensus {
    /// Distinct ordered (src, dst) router pairs in the input.
    pub unique_pairs: usize,
    /// Classes with at least one pair.
    pub classes_hit: usize,
    /// Total classes (`G²`).
    pub num_classes: usize,
    /// Pairs in the most-occupied class.
    pub max_class_pairs: u64,
}

impl PairCensus {
    /// Mean unique pairs per occupied class — the batching factor the
    /// supernode structure offers over per-pair state.
    pub fn pairs_per_class(&self) -> f64 {
        if self.classes_hit == 0 {
            0.0
        } else {
            self.unique_pairs as f64 / self.classes_hit as f64
        }
    }
}

/// The routing state behind an [`Oracle`]: either a materialized CSR
/// table or the table-free analytic backend.
enum Backend {
    /// Per-destination BFS arenas (`RouteTable`): O(n²) memory, O(1)
    /// query, one BFS sweep per fault epoch.
    Table(Arc<RouteTable>),
    /// §9.2 analytic routing over factor-graph state: O(structure²)
    /// memory, per-query path reconstruction, O(|faults|) fault epochs.
    Analytic(AnalyticOracle),
}

/// One immutable serving snapshot: a routing backend (masked
/// [`RouteTable`] or [`AnalyticOracle`]) plus the symmetry classes and
/// the epoch it serves.
///
/// An `Oracle` is built once (or re-masked from a base oracle per fault
/// epoch) and then only read — cloning the [`Arc`]s it hands out is the
/// whole synchronization story, so query threads never lock.
pub struct Oracle {
    spec: Arc<NetworkSpec>,
    backend: Backend,
    classes: SymmetryClasses,
    /// Fault epoch this snapshot serves (0 = the construction mask).
    epoch: u64,
}

impl Oracle {
    /// Build the serving oracle for a network (honoring the fault mask
    /// the spec already carries).
    pub fn new(spec: Arc<NetworkSpec>) -> Self {
        let table = Arc::new(RouteTable::for_spec(&spec));
        let classes = SymmetryClasses::new(&spec);
        Oracle {
            spec,
            backend: Backend::Table(table),
            classes,
            epoch: 0,
        }
    }

    /// Build a table-free serving oracle over a PolarStar network: §9.2
    /// analytic routing instead of a materialized table, so construction
    /// skips the per-destination BFS sweep and fault epochs cost an
    /// `Arc` clone ([`AnalyticOracle::remask`]).
    pub fn new_analytic(net: impl Into<Arc<PolarStarNetwork>>) -> Self {
        let analytic = AnalyticOracle::new(net);
        let spec = Arc::new(analytic.network().spec.clone());
        let classes = SymmetryClasses::new(&spec);
        Oracle {
            spec,
            backend: Backend::Analytic(analytic),
            classes,
            epoch: 0,
        }
    }

    /// Re-mask this oracle for a new cumulative fault set — the
    /// per-epoch path of [`crate::EpochSwapper`]. The table backend
    /// reruns its BFS layers over the pristine neighbor CSR
    /// (`RouteTable::remask`); the analytic backend just swaps the fault
    /// mask. Spec and classes are shared either way.
    pub fn remask(&self, faults: &FaultSet, epoch: u64) -> Oracle {
        let backend = match &self.backend {
            Backend::Table(t) => Backend::Table(Arc::new(t.remask(&self.spec, faults))),
            Backend::Analytic(a) => Backend::Analytic(a.remask(faults)),
        };
        Oracle {
            spec: Arc::clone(&self.spec),
            backend,
            classes: self.classes.clone(),
            epoch,
        }
    }

    /// The network this oracle serves.
    pub fn spec(&self) -> &NetworkSpec {
        &self.spec
    }

    /// The route table snapshot, when this oracle runs on the table
    /// backend (`None` for the table-free analytic backend).
    pub fn table(&self) -> Option<&RouteTable> {
        match &self.backend {
            Backend::Table(t) => Some(t),
            Backend::Analytic(_) => None,
        }
    }

    /// The analytic backend, when this oracle is table-free.
    pub fn analytic(&self) -> Option<&AnalyticOracle> {
        match &self.backend {
            Backend::Table(_) => None,
            Backend::Analytic(a) => Some(a),
        }
    }

    /// Negotiate a congestion-minimizing per-pair route assignment for
    /// `plan`'s traffic matrix against this snapshot's backend —
    /// PathFinder-style rip-up and re-route (see
    /// [`polarstar_netsim::negotiate`]). Works identically over the
    /// table and analytic backends; the result is a pure function of
    /// `(plan, cfg)` for a given snapshot, byte-identical at any rayon
    /// width.
    pub fn negotiate(
        &self,
        plan: &polarstar_netsim::FlowPlan,
        cfg: &polarstar_netsim::NegotiateConfig,
    ) -> polarstar_netsim::NegotiatedRoutes {
        polarstar_netsim::NegotiatedRoutes::negotiate(&self.spec, self, plan, cfg)
    }

    /// Backend label for manifests and logs.
    pub fn backend_name(&self) -> &'static str {
        match &self.backend {
            Backend::Table(_) => "table",
            Backend::Analytic(_) => "analytic",
        }
    }

    /// Resident bytes of the routing state this snapshot queries.
    pub fn memory_bytes(&self) -> usize {
        match &self.backend {
            Backend::Table(t) => t.memory_bytes(),
            Backend::Analytic(a) => a.memory_bytes(),
        }
    }

    /// Distance, first minimal next hop and up to `k` minimal paths of
    /// one pair — what [`Oracle::answer`] reports. The analytic backend
    /// resolves all three in one walk; on the table they are three
    /// arena reads.
    pub(crate) fn resolve(
        &self,
        src: u32,
        dst: u32,
        k: usize,
    ) -> Result<(u32, u32, Vec<Vec<u32>>), RouteError> {
        match &self.backend {
            Backend::Table(t) => Ok((
                PathOracle::distance(&**t, src, dst)?,
                t.next_hop(src, dst)?,
                t.k_paths(src, dst, k)?,
            )),
            Backend::Analytic(a) => {
                let r = a.resolve(src, dst, k, None)?;
                Ok((r.distance, r.next_hop, r.paths))
            }
        }
    }

    /// The supernode symmetry classes.
    pub fn classes(&self) -> &SymmetryClasses {
        &self.classes
    }

    /// The fault epoch this snapshot serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl PathOracle for Oracle {
    fn num_routers(&self) -> usize {
        match &self.backend {
            Backend::Table(t) => t.n(),
            Backend::Analytic(a) => a.num_routers(),
        }
    }

    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        match &self.backend {
            Backend::Table(t) => PathOracle::distance(&**t, src, dst),
            Backend::Analytic(a) => a.distance(src, dst),
        }
    }

    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
        match &self.backend {
            Backend::Table(t) => t.min_next_hops(src, dst, out),
            Backend::Analytic(a) => a.min_next_hops(src, dst, out),
        }
    }

    fn next_hop(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        match &self.backend {
            Backend::Table(t) => t.next_hop(src, dst),
            Backend::Analytic(a) => a.next_hop(src, dst),
        }
    }

    fn path(&self, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
        match &self.backend {
            Backend::Table(t) => t.path(src, dst),
            Backend::Analytic(a) => a.path(src, dst),
        }
    }

    fn k_paths(&self, src: u32, dst: u32, k: usize) -> Result<Vec<Vec<u32>>, RouteError> {
        match &self.backend {
            Backend::Table(t) => t.k_paths(src, dst, k),
            Backend::Analytic(a) => a.k_paths(src, dst, k),
        }
    }

    fn distance_column(&self, dst: u32, out: &mut Vec<u32>) -> bool {
        match &self.backend {
            // The table backend keeps policy-dependent port arenas (a
            // hierarchical table's ports are not reconstructible from
            // distances alone), so it stays on the per-pair path.
            Backend::Table(_) => false,
            Backend::Analytic(a) => a.distance_column(dst, out),
        }
    }

    fn link_usable(&self, u: u32, v: u32) -> bool {
        match &self.backend {
            Backend::Table(_) => true,
            Backend::Analytic(a) => a.link_usable(u, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;

    fn grouped_spec() -> Arc<NetworkSpec> {
        // Two 2-router groups on a 4-cycle.
        let mut spec = NetworkSpec::uniform("c4", Graph::cycle(4), 1);
        spec.group = vec![0, 0, 1, 1];
        Arc::new(spec)
    }

    #[test]
    fn classes_canonicalize_by_ordered_group_cell() {
        let spec = grouped_spec();
        let sc = SymmetryClasses::new(&spec);
        assert_eq!(sc.num_classes(), 4);
        assert_eq!(sc.class_of(0, 1), 0); // (0,0) cell
        assert_eq!(sc.class_of(0, 2), 1); // (0,1) cell
        assert_eq!(sc.class_of(2, 0), 2); // (1,0) cell
        assert_eq!(sc.class_of(3, 2), 3); // (1,1) cell
        assert_eq!(sc.group_of(3), 1);
    }

    #[test]
    fn pair_census_canonicalizes_unique_pairs() {
        let spec = grouped_spec();
        let sc = SymmetryClasses::new(&spec);
        // Duplicates collapse; two pairs in the (0,1) cell, one in (1,0).
        let census = sc.pair_census([(0, 2), (0, 2), (1, 3), (2, 1)]);
        assert_eq!(census.unique_pairs, 3);
        assert_eq!(census.classes_hit, 2);
        assert_eq!(census.num_classes, 4);
        assert_eq!(census.max_class_pairs, 2);
        assert_eq!(census.pairs_per_class(), 1.5);
        assert_eq!(sc.pair_census([]).pairs_per_class(), 0.0);
    }

    #[test]
    fn remask_shares_spec_and_tracks_epoch() {
        let base = Oracle::new(grouped_spec());
        assert_eq!(base.epoch(), 0);
        let cut = FaultSet::from_links([(0, 1)]);
        let masked = base.remask(&cut, 3);
        assert_eq!(masked.epoch(), 3);
        // The cut forces the long way round.
        assert_eq!(PathOracle::distance(&masked, 0, 1), Ok(3));
        assert_eq!(PathOracle::distance(&base, 0, 1), Ok(1), "base untouched");
        // Unreachable after severing both of router 0's links.
        let dead = cut.union(&FaultSet::from_links([(0, 3)]));
        let sealed = base.remask(&dead, 4);
        assert_eq!(
            PathOracle::distance(&sealed, 0, 2),
            Err(RouteError::Unreachable { src: 0, dst: 2 })
        );
    }
}
