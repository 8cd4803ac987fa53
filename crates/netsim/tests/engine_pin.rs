//! Golden pin for the cycle engine: literal `SimResult`s, not
//! thread-count-vs-thread-count comparisons.
//!
//! Every other engine determinism test compares one run against another
//! run of the same build, so a change that moves *all* of them equally
//! passes. These goldens were recorded at commit df5c2b1, on the engine
//! with five positional entry points, nine private `RouteTable`
//! constructor paths and per-epoch parallel vectors, immediately before
//! that surface was collapsed; the refactor had to reproduce every field
//! of every result bit-exactly, at `threads: None` and
//! `threads: Some(3)`.
//!
//! Grid: {q=3 IQ PolarStar (flat table), Dragonfly a4h2 (hierarchical
//! table)} × {MinSingle, MinMulti, Valiant, UGAL-4} ×
//! {pristine, static 5 % link faults, live 5 % burst with recovery under
//! `Reroute`, the same burst under `Stale`}, plus one `MetricsMonitor`
//! report hash.
//!
//! Regenerate with
//! `ENGINE_PIN_PRINT=1 cargo test -p polarstar-netsim --test engine_pin -- --nocapture`
//! only when the *model* intentionally changes — never regenerate for a
//! refactor.

use polarstar::design::{PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::{
    FaultResponse, MetricsMonitor, NoopMonitor, Pattern, RouteTable, RoutingKind, SimConfig,
    SimMonitor, SimResult, Simulation,
};
use polarstar_topo::dragonfly::{dragonfly, DragonflyParams};
use polarstar_topo::network::NetworkSpec;
use polarstar_topo::{FaultSchedule, FaultSet};

const SEED: u64 = 0xE9;
const FAULT_SEED: u64 = 0xFA17;
const LOAD: f64 = 0.3;

fn cfg(threads: Option<usize>) -> SimConfig {
    SimConfig {
        warmup_cycles: 200,
        measure_cycles: 400,
        drain_cycles: 2_500,
        seed: SEED,
        threads,
        ..SimConfig::default()
    }
}

/// q = 3 Inductive-Quad PolarStar: 104 routers, flat minimal table.
fn ps_q3() -> NetworkSpec {
    let cfg = PolarStarConfig {
        q: 3,
        supernode: SupernodeKind::InductiveQuad { degree: 3 },
    };
    PolarStarNetwork::build(cfg, 2).unwrap().spec
}

/// Dragonfly a = 4, h = 2: 36 routers, hierarchical (≤ 1 global) table.
fn df_a4h2() -> NetworkSpec {
    dragonfly(DragonflyParams { a: 4, h: 2, p: 2 })
}

type Net = fn() -> NetworkSpec;

const NETS: [(&str, Net); 2] = [("ps", ps_q3), ("df", df_a4h2)];

const KINDS: [(&str, RoutingKind); 4] = [
    ("min_single", RoutingKind::MinSingle),
    ("min_multi", RoutingKind::MinMulti),
    ("valiant", RoutingKind::Valiant),
    ("ugal4", RoutingKind::Ugal { candidates: 4 }),
];

#[derive(Clone, Copy)]
enum Faults {
    Pristine,
    Static,
    Burst(FaultResponse),
}

const FAULTS: [(&str, Faults); 4] = [
    ("pristine", Faults::Pristine),
    ("static", Faults::Static),
    ("burst_reroute", Faults::Burst(FaultResponse::Reroute)),
    ("burst_stale", Faults::Burst(FaultResponse::Stale)),
];

/// The spec, table, routing, pattern and config of one grid cell.
struct Cell {
    spec: NetworkSpec,
    table: RouteTable,
    kind: RoutingKind,
    pattern: Pattern,
    cfg: SimConfig,
}

impl Cell {
    fn run<M: SimMonitor>(&self, threads: Option<usize>, mon: &mut M) -> SimResult {
        let cfg = SimConfig {
            threads,
            ..self.cfg.clone()
        };
        Simulation {
            spec: &self.spec,
            table: &self.table,
            kind: self.kind,
            pattern: &self.pattern,
        }
        .run_monitored(LOAD, &cfg, mon)
    }
}

fn cell(net: Net, kind: RoutingKind, faults: Faults) -> Cell {
    let mut spec = net();
    let mut cfg = cfg(None);
    match faults {
        Faults::Pristine => {}
        Faults::Static => {
            let f = FaultSet::random_links(&spec.graph, 0.05, FAULT_SEED);
            assert!(!f.is_empty());
            spec = spec.with_faults(f);
        }
        Faults::Burst(response) => {
            // Fails and recovers inside the measurement window.
            cfg.fault_schedule = Some(FaultSchedule::random_burst(
                &spec.graph,
                0.05,
                FAULT_SEED,
                300,
                Some(450),
            ));
            cfg.fault_response = response;
        }
    }
    let table = RouteTable::for_spec(&spec);
    // Uniform traffic, so destination draws exercise the router RNG
    // streams.
    Cell {
        spec,
        table,
        kind,
        pattern: Pattern::Uniform,
        cfg,
    }
}

/// `{:?}` for a float that is also a valid Rust expression.
fn lit(x: f64) -> String {
    if x == f64::INFINITY {
        "f64::INFINITY".into()
    } else {
        format!("{x:?}")
    }
}

fn print_golden(name: &str, r: &SimResult) {
    println!(
        "    (\n        {name:?},\n        SimResult {{\n            offered: {},\n            \
         accepted: {},\n            avg_latency: {},\n            p99_latency: {},\n            \
         delivered_fraction: {},\n            stable: {},\n            measured_ejected: {},\n            \
         avg_hops: {},\n            unroutable: {},\n            faulted_in_flight: {},\n            \
         rerouted: {},\n            watchdog_fired: {},\n        }},\n    ),",
        lit(r.offered),
        lit(r.accepted),
        lit(r.avg_latency),
        lit(r.p99_latency),
        lit(r.delivered_fraction),
        r.stable,
        r.measured_ejected,
        lit(r.avg_hops),
        r.unroutable,
        r.faulted_in_flight,
        r.rerouted,
        r.watchdog_fired,
    );
}

#[test]
fn engine_reproduces_recorded_results() {
    let print = std::env::var("ENGINE_PIN_PRINT").is_ok();
    let mut seen = 0usize;
    let mut live_effect = false;
    for (net_name, net) in NETS {
        for (kind_name, kind) in KINDS {
            for (fault_name, faults) in FAULTS {
                let name = format!("{net_name}/{kind_name}/{fault_name}");
                let c = cell(net, kind, faults);
                let seq = c.run(None, &mut NoopMonitor);
                assert!(seq.measured_ejected > 0, "{name}: degenerate run {seq:?}");
                live_effect |= seq.rerouted > 0 && seq.faulted_in_flight > 0;
                if print {
                    print_golden(&name, &seq);
                    continue;
                }
                let (_, golden) = GOLDENS
                    .iter()
                    .find(|(n, _)| *n == name)
                    .unwrap_or_else(|| panic!("no golden for {name}"));
                assert_eq!(&seq, golden, "{name}: sequential engine drifted");
                assert_eq!(
                    &c.run(Some(3), &mut NoopMonitor),
                    golden,
                    "{name}: 3-thread engine drifted"
                );
                seen += 1;
            }
        }
    }
    assert!(live_effect, "no burst cell both re-routed and dropped");
    if !print {
        assert_eq!(seen, GOLDENS.len(), "stale goldens left in the table");
    }
}

/// FNV-1a over the report's `Debug` rendering (plain structs, vectors
/// and numbers — no hash-ordered containers).
fn report_hash(mon: &MetricsMonitor) -> u64 {
    format!("{:?}", mon.report())
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The monitor hooks fire at the same points with the same arguments:
/// one full `MetricsReport` (link flits, VC samples, stall causes,
/// latency histogram) hashed on the UGAL live-burst cell.
#[test]
fn metrics_report_reproduces_recorded_hash() {
    let c = cell(
        ps_q3,
        RoutingKind::ugal4(),
        Faults::Burst(FaultResponse::Reroute),
    );
    for threads in [None, Some(3)] {
        let mut mon = MetricsMonitor::new(64);
        c.run(threads, &mut mon);
        let h = report_hash(&mon);
        if std::env::var("ENGINE_PIN_PRINT").is_ok() {
            println!("const REPORT_HASH: u64 = {h:#018x};");
            return;
        }
        assert_eq!(
            h, REPORT_HASH,
            "MetricsReport drifted at threads={threads:?}"
        );
    }
}

const REPORT_HASH: u64 = 0x7fc37b6c01005629;

/// Golden values recorded pre-refactor (see module docs).
const GOLDENS: &[(&str, SimResult)] = &[
    (
        "ps/min_single/pristine",
        SimResult {
            offered: 0.3,
            accepted: 0.29427884615384614,
            avg_latency: 18.68664805386763,
            p99_latency: 32.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6089,
            avg_hops: 2.49646904253572,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/min_single/static",
        SimResult {
            offered: 0.3,
            accepted: 0.29447115384615385,
            avg_latency: 19.55608474297914,
            p99_latency: 35.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6089,
            avg_hops: 2.5994416160289044,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/min_single/burst_reroute",
        SimResult {
            offered: 0.3,
            accepted: 0.29427884615384614,
            avg_latency: 19.029397273772375,
            p99_latency: 33.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6089,
            avg_hops: 2.537690918048941,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 4,
            watchdog_fired: false,
        },
    ),
    (
        "ps/min_single/burst_stale",
        SimResult {
            offered: 0.3,
            accepted: 0.29423076923076924,
            avg_latency: 30.921005091147972,
            p99_latency: 168.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6089,
            avg_hops: 2.49646904253572,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/min_multi/pristine",
        SimResult {
            offered: 0.3,
            accepted: 0.2932692307692308,
            avg_latency: 18.66655743077175,
            p99_latency: 32.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6103,
            avg_hops: 2.4943470424381453,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/min_multi/static",
        SimResult {
            offered: 0.3,
            accepted: 0.29360576923076925,
            avg_latency: 19.48673435964625,
            p99_latency: 35.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6106,
            avg_hops: 2.5956436292171636,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/min_multi/burst_reroute",
        SimResult {
            offered: 0.3,
            accepted: 0.29307692307692307,
            avg_latency: 19.029474373669558,
            p99_latency: 33.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6107,
            avg_hops: 2.5387260520713935,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 2,
            watchdog_fired: false,
        },
    ),
    (
        "ps/min_multi/burst_stale",
        SimResult {
            offered: 0.3,
            accepted: 0.2932211538461538,
            avg_latency: 31.371784368343437,
            p99_latency: 169.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6103,
            avg_hops: 2.4943470424381453,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/valiant/pristine",
        SimResult {
            offered: 0.3,
            accepted: 0.2932692307692308,
            avg_latency: 39.19537609899056,
            p99_latency: 77.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6142,
            avg_hops: 4.978183002279388,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/valiant/static",
        SimResult {
            offered: 0.3,
            accepted: 0.2932211538461538,
            avg_latency: 44.104105571847505,
            p99_latency: 97.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6138,
            avg_hops: 5.185402411208863,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/valiant/burst_reroute",
        SimResult {
            offered: 0.3,
            accepted: 0.2929807692307692,
            avg_latency: 40.831431366155854,
            p99_latency: 82.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6134,
            avg_hops: 5.059504401695468,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 7,
            watchdog_fired: false,
        },
    ),
    (
        "ps/valiant/burst_stale",
        SimResult {
            offered: 0.3,
            accepted: 0.2735096153846154,
            avg_latency: 68.42380332139368,
            p99_latency: 234.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6142,
            avg_hops: 4.978183002279388,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/ugal4/pristine",
        SimResult {
            offered: 0.3,
            accepted: 0.2985096153846154,
            avg_latency: 21.489160109201862,
            p99_latency: 41.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6227,
            avg_hops: 2.9958246346555324,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/ugal4/static",
        SimResult {
            offered: 0.3,
            accepted: 0.2987980769230769,
            avg_latency: 22.492618741976894,
            p99_latency: 44.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6232,
            avg_hops: 3.1209884467265727,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "ps/ugal4/burst_reroute",
        SimResult {
            offered: 0.3,
            accepted: 0.2985096153846154,
            avg_latency: 21.92735728030789,
            p99_latency: 43.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6236,
            avg_hops: 3.0532392559332906,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 3,
            watchdog_fired: false,
        },
    ),
    (
        "ps/ugal4/burst_stale",
        SimResult {
            offered: 0.3,
            accepted: 0.29740384615384613,
            avg_latency: 35.96949261400128,
            p99_latency: 178.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 6228,
            avg_hops: 3.008509955041747,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/min_single/pristine",
        SimResult {
            offered: 0.3,
            accepted: 0.29083333333333333,
            avg_latency: 18.062947067238913,
            p99_latency: 32.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 2097,
            avg_hops: 2.369098712446352,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/min_single/static",
        SimResult {
            offered: 0.3,
            accepted: 0.2683333333333333,
            avg_latency: 18.755291688177593,
            p99_latency: 43.0,
            delivered_fraction: 1.0,
            stable: false,
            measured_ejected: 1937,
            avg_hops: 2.4021683014971607,
            unroutable: 160,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/min_single/burst_reroute",
        SimResult {
            offered: 0.3,
            accepted: 0.28055555555555556,
            avg_latency: 18.278299555116163,
            p99_latency: 34.0,
            delivered_fraction: 0.9995059288537549,
            stable: true,
            measured_ejected: 2023,
            avg_hops: 2.3781512605042017,
            unroutable: 73,
            faulted_in_flight: 1,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/min_single/burst_stale",
        SimResult {
            offered: 0.3,
            accepted: 0.29083333333333333,
            avg_latency: 31.84215546018121,
            p99_latency: 169.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 2097,
            avg_hops: 2.369098712446352,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/min_multi/pristine",
        SimResult {
            offered: 0.3,
            accepted: 0.29083333333333333,
            avg_latency: 18.062947067238913,
            p99_latency: 32.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 2097,
            avg_hops: 2.369098712446352,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/min_multi/static",
        SimResult {
            offered: 0.3,
            accepted: 0.2683333333333333,
            avg_latency: 18.755291688177593,
            p99_latency: 43.0,
            delivered_fraction: 1.0,
            stable: false,
            measured_ejected: 1937,
            avg_hops: 2.4021683014971607,
            unroutable: 160,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/min_multi/burst_reroute",
        SimResult {
            offered: 0.3,
            accepted: 0.28055555555555556,
            avg_latency: 18.278299555116163,
            p99_latency: 34.0,
            delivered_fraction: 0.9995059288537549,
            stable: true,
            measured_ejected: 2023,
            avg_hops: 2.3781512605042017,
            unroutable: 73,
            faulted_in_flight: 1,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/min_multi/burst_stale",
        SimResult {
            offered: 0.3,
            accepted: 0.29083333333333333,
            avg_latency: 31.84215546018121,
            p99_latency: 169.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 2097,
            avg_hops: 2.369098712446352,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/valiant/pristine",
        SimResult {
            offered: 0.3,
            accepted: 0.29125,
            avg_latency: 39.47075471698113,
            p99_latency: 80.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 2120,
            avg_hops: 4.699056603773585,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/valiant/static",
        SimResult {
            offered: 0.3,
            accepted: 0.22152777777777777,
            avg_latency: 46.36425648021828,
            p99_latency: 236.0,
            delivered_fraction: 0.7525667351129364,
            stable: false,
            measured_ejected: 1466,
            avg_hops: 4.591405184174625,
            unroutable: 166,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/valiant/burst_reroute",
        SimResult {
            offered: 0.3,
            accepted: 0.26944444444444443,
            avg_latency: 49.081862745098036,
            p99_latency: 228.0,
            delivered_fraction: 0.9951219512195122,
            stable: false,
            measured_ejected: 2040,
            avg_hops: 4.708823529411765,
            unroutable: 66,
            faulted_in_flight: 10,
            rerouted: 7,
            watchdog_fired: false,
        },
    ),
    (
        "df/valiant/burst_stale",
        SimResult {
            offered: 0.3,
            accepted: 0.2654166666666667,
            avg_latency: 72.06179245283019,
            p99_latency: 240.0,
            delivered_fraction: 1.0,
            stable: false,
            measured_ejected: 2120,
            avg_hops: 4.699056603773585,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/ugal4/pristine",
        SimResult {
            offered: 0.3,
            accepted: 0.29847222222222225,
            avg_latency: 20.666666666666668,
            p99_latency: 41.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 2175,
            avg_hops: 2.802298850574713,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/ugal4/static",
        SimResult {
            offered: 0.3,
            accepted: 0.2751388888888889,
            avg_latency: 20.547123015873016,
            p99_latency: 45.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 2016,
            avg_hops: 2.7762896825396823,
            unroutable: 171,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/ugal4/burst_reroute",
        SimResult {
            offered: 0.3,
            accepted: 0.28958333333333336,
            avg_latency: 20.475059382422803,
            p99_latency: 42.0,
            delivered_fraction: 0.9985768500948766,
            stable: true,
            measured_ejected: 2105,
            avg_hops: 2.781472684085511,
            unroutable: 58,
            faulted_in_flight: 3,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
    (
        "df/ugal4/burst_stale",
        SimResult {
            offered: 0.3,
            accepted: 0.29847222222222225,
            avg_latency: 31.79632183908046,
            p99_latency: 175.0,
            delivered_fraction: 1.0,
            stable: true,
            measured_ejected: 2175,
            avg_hops: 2.7944827586206897,
            unroutable: 0,
            faulted_in_flight: 0,
            rerouted: 0,
            watchdog_fired: false,
        },
    ),
];
