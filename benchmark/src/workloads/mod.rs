//! The six workloads. Each file states what its body is and why.

pub mod cycle;
pub mod flow;
pub mod motif;
pub mod routed;

use polarstar::design::best_config;
use polarstar::network::PolarStarNetwork;
use polarstar_routed::AnalyticOracle;

/// Table 3's PS-IQ: radix 15, 5 endpoints per router, 1 064 routers.
pub fn build_psiq() -> PolarStarNetwork {
    let cfg = best_config(15).expect("a radix-15 PolarStar exists");
    PolarStarNetwork::build(cfg, 5).expect("PS-IQ builds")
}

/// The radix-32 PolarStar (9 954 routers) with enough endpoints per
/// router to reach `endpoint_floor`: 109 494 endpoints at a floor of
/// 100 000 (PS-scale32), 1 005 354 at 1 000 000 (PS-million).
pub fn build_radix32(endpoint_floor: usize) -> PolarStarNetwork {
    let cfg = best_config(32).expect("a radix-32 PolarStar exists");
    let per_router = endpoint_floor.div_ceil(cfg.order()) as u32;
    PolarStarNetwork::build(cfg, per_router).expect("radix-32 PolarStar builds")
}

/// The analytic router's cumulative route counters (zero on a table
/// backend); the difference of two readings is what one body cost.
pub struct RouterCounts {
    pub routes: u64,
    pub fallbacks: u64,
}

impl RouterCounts {
    pub fn read(oracle: Option<&AnalyticOracle>) -> Self {
        oracle.map_or(
            RouterCounts {
                routes: 0,
                fallbacks: 0,
            },
            |o| RouterCounts {
                routes: o.router().routes_computed(),
                fallbacks: o.router().fallbacks(),
            },
        )
    }

    pub fn since(&self, oracle: Option<&AnalyticOracle>) -> Self {
        let now = Self::read(oracle);
        RouterCounts {
            routes: now.routes - self.routes,
            fallbacks: now.fallbacks - self.fallbacks,
        }
    }
}
