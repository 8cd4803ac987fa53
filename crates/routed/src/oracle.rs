//! The serving oracle: a routing backend (CSR [`RouteTable`] snapshot or
//! the table-free [`AnalyticOracle`]) packaged for concurrent query
//! answering.

use crate::analytic::AnalyticOracle;
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::RouteTable;
use polarstar_topo::fault::{FaultMask, FaultSet};
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::oracle::{PathOracle, RouteError};
use std::sync::Arc;

/// The routing state behind an [`Oracle`]: either a materialized CSR
/// table or the table-free analytic backend.
enum Backend {
    /// Distance arena (`RouteTable`) over the spec it was built for:
    /// O(n²) memory, O(degree) query (the port rule over one distance
    /// column), one reassembly per fault epoch whose mask differs from
    /// the base table's.
    Table(Arc<NetworkSpec>, Arc<RouteTable>),
    /// §9.2 analytic routing over factor-graph state: O(structure²)
    /// memory, per-query path reconstruction, O(|faults|) fault epochs.
    /// Its spec is the network's, behind the oracle's own `Arc`.
    Analytic(AnalyticOracle),
}

/// One immutable serving snapshot: a routing backend (masked
/// [`RouteTable`] or [`AnalyticOracle`]) plus the epoch it serves.
///
/// An `Oracle` is built once (or re-masked from a base oracle per fault
/// epoch) and then only read — cloning the [`Arc`]s it hands out is the
/// whole synchronization story, so query threads never lock.
pub struct Oracle {
    backend: Backend,
    /// Fault epoch this snapshot serves (0 = the construction mask).
    epoch: u64,
}

impl Oracle {
    /// Build the serving oracle for a network (honoring the fault mask
    /// the spec already carries).
    pub fn new(spec: Arc<NetworkSpec>) -> Self {
        let table = Arc::new(RouteTable::for_spec(&spec));
        Oracle {
            backend: Backend::Table(spec, table),
            epoch: 0,
        }
    }

    /// Build a table-free serving oracle over a PolarStar network: §9.2
    /// analytic routing instead of a materialized table, so construction
    /// skips the O(n²) table assembly and fault epochs cost an `Arc`
    /// clone ([`AnalyticOracle::remask`]).
    pub fn new_analytic(net: impl Into<Arc<PolarStarNetwork>>) -> Self {
        Oracle {
            backend: Backend::Analytic(AnalyticOracle::new(net)),
            epoch: 0,
        }
    }

    /// Re-mask this oracle for a new cumulative fault set — the
    /// per-epoch path of [`crate::EpochSwapper`]. The table backend
    /// reassembles its distances over the pristine graph
    /// (`RouteTable::remask`: a block BFS, a few milliseconds at 1 064
    /// routers) — unless the set
    /// compiles to the mask this table already serves (a recovery back
    /// to it), in which case the new snapshot shares the allocation.
    /// The analytic backend just swaps the fault mask. The spec is
    /// shared either way.
    pub fn remask(&self, faults: &FaultSet, epoch: u64) -> Oracle {
        let backend = match &self.backend {
            Backend::Table(spec, t) if faults.compile(&spec.graph) == *t.mask() => {
                Backend::Table(Arc::clone(spec), Arc::clone(t))
            }
            Backend::Table(spec, t) => {
                Backend::Table(Arc::clone(spec), Arc::new(t.remask(spec, faults)))
            }
            Backend::Analytic(a) => Backend::Analytic(a.remask(faults)),
        };
        Oracle { backend, epoch }
    }

    /// The network this oracle serves.
    pub fn spec(&self) -> &NetworkSpec {
        match &self.backend {
            Backend::Table(spec, _) => spec,
            Backend::Analytic(a) => &a.network().spec,
        }
    }

    /// The route table snapshot, when this oracle runs on the table
    /// backend (`None` for the table-free analytic backend).
    pub fn table(&self) -> Option<&RouteTable> {
        match &self.backend {
            Backend::Table(_, t) => Some(t),
            Backend::Analytic(_) => None,
        }
    }

    /// The analytic backend, when this oracle is table-free.
    pub fn analytic(&self) -> Option<&AnalyticOracle> {
        match &self.backend {
            Backend::Table(..) => None,
            Backend::Analytic(a) => Some(a),
        }
    }

    /// Resident bytes of the routing state this snapshot queries.
    pub fn memory_bytes(&self) -> usize {
        match &self.backend {
            Backend::Table(_, t) => t.memory_bytes(),
            Backend::Analytic(a) => a.memory_bytes(),
        }
    }

    /// Distance, first minimal next hop and up to `k` minimal paths of
    /// one pair — what [`Oracle::answer`] reports. The analytic backend
    /// resolves all three in one walk; on the table they are a distance
    /// read and one walk over the destination's column, whose first path
    /// starts with the first next hop (a `next_hop` read of its own only
    /// when `k == 0`).
    pub(crate) fn resolve(
        &self,
        src: u32,
        dst: u32,
        k: usize,
    ) -> Result<(u32, u32, Vec<Vec<u32>>), RouteError> {
        match &self.backend {
            Backend::Table(_, t) => {
                let distance = PathOracle::distance(&**t, src, dst)?;
                let paths = t.k_paths(src, dst, k)?;
                let next_hop = match paths.first() {
                    Some(path) => path.get(1).copied().unwrap_or(dst),
                    None => t.next_hop(src, dst)?,
                };
                Ok((distance, next_hop, paths))
            }
            Backend::Analytic(a) => {
                let r = a.resolve(src, dst, k, None)?;
                Ok((r.distance, r.next_hop, r.paths))
            }
        }
    }

    /// The fault epoch this snapshot serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl PathOracle for Oracle {
    fn num_routers(&self) -> usize {
        match &self.backend {
            Backend::Table(_, t) => t.n(),
            Backend::Analytic(a) => a.num_routers(),
        }
    }

    fn distance(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        match &self.backend {
            Backend::Table(_, t) => PathOracle::distance(&**t, src, dst),
            Backend::Analytic(a) => a.distance(src, dst),
        }
    }

    fn min_next_hops(&self, src: u32, dst: u32, out: &mut Vec<u32>) -> Result<(), RouteError> {
        match &self.backend {
            Backend::Table(_, t) => t.min_next_hops(src, dst, out),
            Backend::Analytic(a) => a.min_next_hops(src, dst, out),
        }
    }

    fn next_hop(&self, src: u32, dst: u32) -> Result<u32, RouteError> {
        match &self.backend {
            Backend::Table(_, t) => t.next_hop(src, dst),
            Backend::Analytic(a) => a.next_hop(src, dst),
        }
    }

    fn path(&self, src: u32, dst: u32) -> Result<Vec<u32>, RouteError> {
        match &self.backend {
            Backend::Table(_, t) => t.path(src, dst),
            Backend::Analytic(a) => a.path(src, dst),
        }
    }

    fn k_paths(&self, src: u32, dst: u32, k: usize) -> Result<Vec<Vec<u32>>, RouteError> {
        match &self.backend {
            Backend::Table(_, t) => t.k_paths(src, dst, k),
            Backend::Analytic(a) => a.k_paths(src, dst, k),
        }
    }

    fn distance_column(&self, dst: u32, out: &mut Vec<u32>) -> Option<&FaultMask> {
        match &self.backend {
            // A hierarchical table judges global ports on its pure-local
            // `far` arena, which one distance column cannot carry, so
            // the table backend stays on the per-pair path.
            Backend::Table(..) => None,
            Backend::Analytic(a) => a.distance_column(dst, out),
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

    #[test]
    fn remask_back_to_the_base_mask_shares_the_base_table() {
        let base = Oracle::new(grouped_spec());
        let cut = FaultSet::from_links([(0, 1)]);
        let masked = base.remask(&cut, 1);
        assert!(!std::ptr::eq(
            masked.table().unwrap(),
            base.table().unwrap()
        ));
        // Recovered, or "failed" where the graph has no link or router:
        // the base table's own mask, so the same allocation.
        for same in [FaultSet::empty(), FaultSet::from_links([(0, 2), (7, 8)])] {
            let recovered = base.remask(&same, 2);
            assert_eq!(recovered.epoch(), 2);
            assert!(std::ptr::eq(
                recovered.table().unwrap(),
                base.table().unwrap()
            ));
        }
        // An oracle whose base is itself masked shares on that mask.
        assert!(std::ptr::eq(
            masked.remask(&cut, 3).table().unwrap(),
            masked.table().unwrap()
        ));
    }
}
