//! Flow-level fast-path benchmark: cross-validate the max-min flow
//! simulator against the cycle engine, then run the table-free scale
//! demo the cycle engine cannot reach.
//!
//! Two phases:
//!
//! 1. `xval` — small PolarStar configs where both models are cheap,
//!    on the *same* resolved traffic (the flow side reuses the engine's
//!    pattern seed via [`engine_resolve_seed`]). Both models use one
//!    matched saturation definition — the offered load where delivered
//!    fraction falls below [`THETA`] — because the two natural notions
//!    differ: [`FlowNetwork::saturation_load`] is the *first-link-
//!    capacity* onset (where the cycle engine's latency knee starts),
//!    while throughput loss only becomes material once enough flows
//!    cross saturated links. The cycle side bisects on measured
//!    `accepted/offered` (`RoutingKind::MinMulti`, whose fluid limit is
//!    ECMP splitting); the fluid side bisects
//!    `FlowNetwork::solve(load).delivered_fraction`. Gates: relative
//!    saturation agreement within [`XVAL_GATE`], and pointwise
//!    delivered-fraction agreement within [`DELIVERED_GATE`] at a
//!    1.5×-overload probe.
//! 2. `scale` — a ≥100k-endpoint PolarStar routed entirely through the
//!    table-free `AnalyticOracle` (no CSR route table anywhere), timing
//!    the class-batched flow construction (flows/sec) and the max-min
//!    solve, and recording peak RSS and endpoints-per-GB. RSS is
//!    sampled immediately after the flow build so the manifest records
//!    build-attributable memory, before solve scratch allocates. The
//!    gates are ≥100k endpoints and peak RSS < 8 GB (full mode only;
//!    `--quick` shrinks the config to smoke-test the path).
//!
//! Scale-phase extras:
//!
//! * `--million` — run the demo at the 1M-endpoint design point
//!   (radix-32 PolarStar, 101 endpoints/router ≈ 1.005M endpoints) and
//!   raise the endpoint floor to 1M;
//! * `--weighted` — add a weighted-foreground + scaled-background
//!   traffic overlay run ([`FlowDemand::PerSource`] stacked with a
//!   [`FlowDemand::Scaled`] uniform component) with its own bench rows;
//! * `--epochs <n>` — walk an n-epoch nested link-fault schedule
//!   through `AnalyticOracle::remask` + [`FlowPlan::advance_epoch`],
//!   reporting per-epoch DAG reuse, then pin the final epoch against a
//!   fresh batched build.
//!
//! CSV to stdout:
//! `phase,topology,pattern,routers,endpoints,flows,exact_sat,cycle_sat,flow_sat,rel_err,delivered_err,solve_ms`.
//! `--metrics-dir <path>` writes one `RunManifest` per config;
//! `--bench-json <path>` writes the `BENCH_flow.json` rows
//! (`{"group","bench","value","unit"}` per line; see EXPERIMENTS.md).

use bench::manifest::file_stem;
use bench::{flag_values, metrics_dir, quick_mode, write_bench_json, RunManifest};
use polarstar::design::{best_config, PolarStarConfig, SupernodeKind};
use polarstar::network::PolarStarNetwork;
use polarstar_netsim::engine::simulate;
use polarstar_netsim::traffic::engine_resolve_seed;
use polarstar_netsim::{
    FlowDemand, FlowNetwork, FlowPlan, FlowRouting, Pattern, RouteTable, RoutingKind, SimConfig,
    TrafficComponent,
};
use polarstar_routed::{AnalyticOracle, SymmetryClasses};
use polarstar_topo::fault::{FaultSchedule, FaultSet};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Shared simulator seed: the flow model resolves its pattern map with
/// `engine_resolve_seed(TRAFFIC_SEED)`, so the two sides route
/// identical source→destination pairs.
const TRAFFIC_SEED: u64 = 0xF10;

/// Cycle-vs-flow saturation agreement gate (acceptance criterion: 10%).
const XVAL_GATE: f64 = 0.10;

/// Delivered-fraction threshold defining throughput saturation on both
/// models (fraction of offered demand actually carried).
const THETA: f64 = 0.97;

/// Pointwise cycle-vs-fluid delivered-fraction agreement gate at the
/// overload probe (observed agreement is ~0.005).
const DELIVERED_GATE: f64 = 0.02;

/// Scale-demo RSS ceiling (acceptance criterion: < 8 GB).
const RSS_GATE_BYTES: u64 = 8 << 30;

/// Scale-demo endpoint floor.
const SCALE_ENDPOINT_FLOOR: usize = 100_000;

/// Peak resident set (VmHWM) in bytes; 0 off-Linux.
fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<u64>().ok())
            })
        })
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// `--weighted`: add the weighted-demand overlay run to the scale phase.
fn weighted_mode() -> bool {
    std::env::args().any(|a| a == "--weighted")
}

/// `--million`: run the scale demo at the 1M-endpoint design point.
fn million_mode() -> bool {
    std::env::args().any(|a| a == "--million")
}

/// `--epochs <n>`: walk an n-epoch fault schedule through the plan. A
/// count that does not parse, or zero, is a usage error (exit 2) like a
/// forgotten value — never a silently skipped walk.
fn epochs_arg() -> Option<usize> {
    flag_values("--epochs").first().map(|v| match v.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("error: --epochs expects a positive count: --epochs <n>, got {v:?}");
            std::process::exit(2)
        }
    })
}

/// One `BENCH_flow.json` line.
fn bench_row(out: &mut String, group: &str, bench: &str, value: f64, unit: &str) {
    writeln!(
        out,
        "{{\"group\":\"{group}\",\"bench\":\"{bench}\",\"value\":{value},\"unit\":\"{unit}\"}}"
    )
    .expect("string write");
}

/// Small cross-validation configs: both factor kinds, both cheap enough
/// for the cycle engine's binary search.
fn xval_configs(quick: bool) -> Vec<(&'static str, PolarStarConfig, u32)> {
    let mut v = vec![(
        "PS-q3-IQ3",
        PolarStarConfig {
            q: 3,
            supernode: SupernodeKind::InductiveQuad { degree: 3 },
        },
        4,
    )];
    if !quick {
        v.push((
            "PS-q5-Pal2",
            PolarStarConfig {
                q: 5,
                supernode: SupernodeKind::Paley { degree: 2 },
            },
            4,
        ));
    }
    v
}

/// Smallest load where the fluid delivered fraction drops below
/// [`THETA`] (bisection; `delivered_fraction` is non-increasing in
/// load).
fn fluid_throughput_sat(fnet: &FlowNetwork) -> f64 {
    if fnet.solve(1.0).delivered_fraction >= THETA {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while hi - lo > 1e-3 {
        let mid = 0.5 * (lo + hi);
        if fnet.solve(mid).delivered_fraction >= THETA {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Cycle-engine counterpart: smallest load where measured
/// `accepted/offered` drops below [`THETA`].
#[allow(clippy::too_many_arguments)]
fn cycle_throughput_sat(
    spec: &polarstar_topo::network::NetworkSpec,
    table: &RouteTable,
    pattern: &Pattern,
    cfg: &SimConfig,
    tol: f64,
) -> f64 {
    let ratio = |load: f64| {
        let r = simulate(spec, table, RoutingKind::MinMulti, pattern, load, cfg);
        r.accepted / load
    };
    if ratio(1.0) >= THETA {
        return 1.0;
    }
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    while hi - lo > tol {
        let mid = 0.5 * (lo + hi);
        if ratio(mid) >= THETA {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

fn main() {
    let quick = quick_mode();
    // Read up front: a flag that forgot its value, or a bad epoch
    // count, exits before the sweep.
    let dir = metrics_dir();
    let n_epochs = epochs_arg();
    let mut failed = false;
    let mut bench_rows = String::new();

    println!("phase,topology,pattern,routers,endpoints,flows,exact_sat,cycle_sat,flow_sat,rel_err,delivered_err,solve_ms");

    // Phase 1: cycle-vs-flow cross-validation on small configs.
    let tol = if quick { 0.02 } else { 0.01 };
    let patterns: &[Pattern] = if quick {
        &[Pattern::Permutation]
    } else {
        &[Pattern::Permutation, Pattern::AdversarialGroup]
    };
    let mut cfg = SimConfig {
        seed: TRAFFIC_SEED,
        ..Default::default()
    };
    if quick {
        cfg.warmup_cycles = 2_000;
        cfg.measure_cycles = 5_000;
        cfg.drain_cycles = 20_000;
    } else {
        cfg.warmup_cycles = 4_000;
        cfg.measure_cycles = 20_000;
        cfg.drain_cycles = 80_000;
    }
    for (key, ps_cfg, h) in xval_configs(quick) {
        let net = match PolarStarNetwork::build(ps_cfg, h) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("flow_sweep: {key}: {e}");
                failed = true;
                continue;
            }
        };
        let spec = &net.spec;
        let table = RouteTable::for_spec(spec);
        let mut manifest = RunManifest::for_network(key, spec);
        for pattern in patterns {
            let fnet = FlowNetwork::build(
                spec,
                &table,
                pattern,
                engine_resolve_seed(cfg.seed),
                FlowRouting::EcmpSplit,
            );
            let exact_sat = fnet.saturation_load();
            let flow_sat = fluid_throughput_sat(&fnet);
            let cycle_sat = cycle_throughput_sat(spec, &table, pattern, &cfg, tol);
            let rel_err = (cycle_sat - flow_sat).abs() / flow_sat.max(1e-12);
            // Pointwise check at 1.5× the first-link-saturation onset:
            // the fluid allocation must predict the engine's measured
            // throughput loss, not just the crossing point.
            let overload = (1.5 * exact_sat).min(1.0);
            let cycle_probe =
                simulate(spec, &table, RoutingKind::MinMulti, pattern, overload, &cfg);
            let fluid_probe = fnet.solve(overload);
            let delivered_err =
                (cycle_probe.accepted / overload - fluid_probe.delivered_fraction).abs();
            // Sub-saturation sanity: the fluid model must carry every
            // demand strictly below its own saturation point.
            let probe = fnet.solve(0.5 * exact_sat);
            let t0 = Instant::now();
            let at_full = fnet.solve(1.0);
            let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
            println!(
                "xval,{key},{},{},{},{},{exact_sat:.4},{cycle_sat:.4},{flow_sat:.4},{rel_err:.4},{delivered_err:.4},{solve_ms:.2}",
                pattern.label(),
                spec.routers(),
                spec.total_endpoints(),
                fnet.num_flows(),
            );
            std::hint::black_box(&at_full);
            if fnet.unroutable() > 0 {
                eprintln!(
                    "flow_sweep: {key}/{}: unroutable flows on a pristine network",
                    pattern.label()
                );
                failed = true;
            }
            if !probe.stable || probe.delivered_fraction < 1.0 - 1e-9 {
                eprintln!(
                    "flow_sweep: {key}/{}: sub-saturation probe not fully delivered ({:.4})",
                    pattern.label(),
                    probe.delivered_fraction
                );
                failed = true;
            }
            if rel_err > XVAL_GATE {
                eprintln!(
                    "flow_sweep: {key}/{}: cycle sat {cycle_sat:.4} vs flow sat {flow_sat:.4} \
                     disagree by {:.1}% (> {:.0}% gate)",
                    pattern.label(),
                    rel_err * 100.0,
                    XVAL_GATE * 100.0
                );
                failed = true;
            }
            if delivered_err > DELIVERED_GATE {
                eprintln!(
                    "flow_sweep: {key}/{}: delivered fraction at {overload:.3} load disagrees \
                     by {delivered_err:.4} (> {DELIVERED_GATE} gate)",
                    pattern.label()
                );
                failed = true;
            }
            let p = pattern.label();
            manifest.push_extra(format!("exact_sat_{p}"), exact_sat);
            manifest.push_extra(format!("cycle_sat_{p}"), cycle_sat);
            manifest.push_extra(format!("flow_sat_{p}"), flow_sat);
            manifest.push_extra(format!("xval_rel_err_{p}"), rel_err);
            manifest.push_extra(format!("xval_delivered_err_{p}"), delivered_err);
            let slug = format!("{}_{p}", key.to_lowercase().replace('-', "_"));
            bench_row(
                &mut bench_rows,
                "flow_xval",
                &format!("cycle_sat_{slug}"),
                cycle_sat,
                "load",
            );
            bench_row(
                &mut bench_rows,
                "flow_xval",
                &format!("flow_sat_{slug}"),
                flow_sat,
                "load",
            );
            bench_row(
                &mut bench_rows,
                "flow_xval",
                &format!("rel_err_{slug}"),
                rel_err,
                "ratio",
            );
            bench_row(
                &mut bench_rows,
                "flow_xval",
                &format!("delivered_err_{slug}"),
                delivered_err,
                "ratio",
            );
        }
        manifest.push_extra("xval_search_tol", tol);
        manifest.push_extra("xval_theta", THETA);
        if let Some(dir) = &dir {
            let stem = file_stem(&format!("flow_sweep_{key}"));
            match manifest.write(dir, &stem) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("flow_sweep: writing manifest for {key}: {e}");
                    failed = true;
                }
            }
        }
    }

    // Phase 2: table-free scale demo through the analytic oracle.
    let million = million_mode();
    let endpoint_floor = if million {
        1_000_000
    } else {
        SCALE_ENDPOINT_FLOOR
    };
    let (scale_key, scale_cfg, h) = if million {
        let cfg = best_config(32).expect("radix-32 config");
        let h = endpoint_floor.div_ceil(cfg.order()) as u32;
        ("PS-million", cfg, h)
    } else if quick {
        // Smoke-test the path on the Table 3 PS-IQ size.
        ("PS-IQ", best_config(15).expect("radix-15 config"), 5u32)
    } else {
        let cfg = best_config(32).expect("radix-32 config");
        let h = endpoint_floor.div_ceil(cfg.order()) as u32;
        ("PS-scale32", cfg, h)
    };
    match PolarStarNetwork::build(scale_cfg, h) {
        Err(e) => {
            eprintln!("flow_sweep: {scale_key}: {e}");
            failed = true;
        }
        Ok(net) => {
            let net = Arc::new(net);
            let endpoints = net.spec.total_endpoints();
            let routers = net.spec.routers();
            let oracle = AnalyticOracle::new(net.clone());
            let oracle_bytes = oracle.memory_bytes();
            let comps = [TrafficComponent::new(Pattern::Uniform, TRAFFIC_SEED)];
            let t0 = Instant::now();
            let plan = FlowPlan::build(&net.spec, &oracle, &comps, FlowRouting::EcmpSplit);
            let fnet = plan.network();
            let build_s = t0.elapsed().as_secs_f64();
            // Sample the high-water mark right after the build: the
            // manifest must record build-attributable memory, not the
            // solve's scratch on top of it.
            let rss = peak_rss_bytes();
            let census = SymmetryClasses::new(&net.spec).pair_census(plan.pairs().iter().copied());
            let flows = fnet.num_flows();
            let flows_per_sec = flows as f64 / build_s.max(1e-12);
            let flow_sat = fnet.saturation_load();
            let t0 = Instant::now();
            let at_sat = fnet.solve(1.0);
            let solve_ms = t0.elapsed().as_secs_f64() * 1e3;
            let endpoints_per_gb = if rss > 0 {
                endpoints as f64 / (rss as f64 / (1u64 << 30) as f64)
            } else {
                0.0
            };
            println!(
                "scale,{scale_key},uniform,{routers},{endpoints},{flows},{flow_sat:.4},,,,,{solve_ms:.2}"
            );
            std::hint::black_box(at_sat.delivered_fraction);
            eprintln!(
                "flow_sweep: {scale_key}: {endpoints} endpoints, {flows} flows over \
                 {} unique pairs ({} of {} classes hit) routed table-free in {:.2}s \
                 ({:.0} flows/sec), post-build RSS {:.2} GB ({:.0} endpoints/GB), \
                 oracle {} B + flow state {} B",
                census.unique_pairs,
                census.classes_hit,
                census.num_classes,
                build_s,
                flows_per_sec,
                rss as f64 / (1u64 << 30) as f64,
                endpoints_per_gb,
                oracle_bytes,
                fnet.memory_bytes(),
            );
            if oracle.router().fallbacks() > 0 {
                eprintln!(
                    "flow_sweep: {scale_key}: {} pristine backstop routes",
                    oracle.router().fallbacks()
                );
                failed = true;
            }
            if !quick || million {
                if endpoints < endpoint_floor {
                    eprintln!(
                        "flow_sweep: {scale_key}: {endpoints} endpoints below the \
                         {endpoint_floor} floor"
                    );
                    failed = true;
                }
                if rss == 0 || rss >= RSS_GATE_BYTES {
                    eprintln!(
                        "flow_sweep: {scale_key}: post-build RSS {rss} bytes outside the \
                         <8 GB gate"
                    );
                    failed = true;
                }
            }
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "endpoints",
                endpoints as f64,
                "count",
            );
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "routers",
                routers as f64,
                "count",
            );
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "flows",
                flows as f64,
                "count",
            );
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "build_ms",
                build_s * 1e3,
                "ms",
            );
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "flows_per_sec",
                flows_per_sec,
                "hz",
            );
            bench_row(&mut bench_rows, "flow_scale", "solve_ms", solve_ms, "ms");
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "saturation_load",
                flow_sat,
                "load",
            );
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "oracle_bytes",
                oracle_bytes as f64,
                "bytes",
            );
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "flow_state_bytes",
                fnet.memory_bytes() as f64,
                "bytes",
            );
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "peak_rss_bytes",
                rss as f64,
                "bytes",
            );
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "endpoints_per_gb",
                endpoints_per_gb,
                "count",
            );
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "unique_pairs",
                census.unique_pairs as f64,
                "count",
            );
            bench_row(
                &mut bench_rows,
                "flow_scale",
                "classes_hit",
                census.classes_hit as f64,
                "count",
            );

            // Weighted-demand overlay: a hot foreground (every fourth
            // endpoint at 4× demand) stacked with a 0.25× uniform
            // background component, solved progressively.
            if weighted_mode() {
                let mut weights = vec![1.0f64; endpoints];
                for (e, w) in weights.iter_mut().enumerate() {
                    if e % 4 == 0 {
                        *w = 4.0;
                    }
                }
                let wcomps = [
                    TrafficComponent::with_demand(
                        Pattern::Permutation,
                        TRAFFIC_SEED,
                        FlowDemand::PerSource(weights),
                    ),
                    TrafficComponent::with_demand(
                        Pattern::Uniform,
                        TRAFFIC_SEED + 1,
                        FlowDemand::Scaled(0.25),
                    ),
                ];
                let t0 = Instant::now();
                let wplan = FlowPlan::build(&net.spec, &oracle, &wcomps, FlowRouting::EcmpSplit);
                let wnet = wplan.network();
                let wbuild_s = t0.elapsed().as_secs_f64();
                let wflows = wnet.num_flows();
                let t0 = Instant::now();
                let wsol = wnet.solve(0.5);
                let wsolve_ms = t0.elapsed().as_secs_f64() * 1e3;
                println!(
                    "scale,{scale_key},weighted,{routers},{endpoints},{wflows},,,,,,{wsolve_ms:.2}"
                );
                eprintln!(
                    "flow_sweep: {scale_key}: weighted overlay: {wflows} flows over {} \
                     pairs built in {:.2}s, delivered {:.4} at 0.5 load",
                    wplan.num_pairs(),
                    wbuild_s,
                    wsol.delivered_fraction,
                );
                if wnet.demands().is_none() {
                    eprintln!("flow_sweep: {scale_key}: weighted build lost its demand vector");
                    failed = true;
                }
                if !(wsol.delivered_fraction > 0.0 && wsol.delivered_fraction <= 1.0 + 1e-9) {
                    eprintln!(
                        "flow_sweep: {scale_key}: weighted delivered fraction {} out of range",
                        wsol.delivered_fraction
                    );
                    failed = true;
                }
                bench_row(
                    &mut bench_rows,
                    "flow_weighted",
                    "flows",
                    wflows as f64,
                    "count",
                );
                bench_row(
                    &mut bench_rows,
                    "flow_weighted",
                    "build_ms",
                    wbuild_s * 1e3,
                    "ms",
                );
                bench_row(
                    &mut bench_rows,
                    "flow_weighted",
                    "flows_per_sec",
                    wflows as f64 / wbuild_s.max(1e-12),
                    "hz",
                );
                bench_row(
                    &mut bench_rows,
                    "flow_weighted",
                    "delivered_at_half_load",
                    wsol.delivered_fraction,
                    "ratio",
                );
            }

            // Fault-epoch sweep: nested link-failure bursts walked
            // through the mask-swap oracle; untouched pair DAGs are
            // reused, and the final epoch is pinned against a fresh
            // batched build. `epoch_extras` carries each epoch's
            // `{failed_links, rerouted_pairs, walk_ms}` and the rebuild
            // time to the manifest's `extra` block.
            let mut epoch_extras: Vec<(String, f64)> = Vec::new();
            if let Some(n_epochs) = n_epochs {
                let mut sched = FaultSchedule::new();
                for i in 1..=n_epochs as u64 {
                    // Same seed + growing fraction = shuffled-prefix
                    // nesting, so every epoch is monotone growth until
                    // the implicit recovery check below.
                    let frac = 0.005 * i as f64;
                    sched =
                        sched.fail_at(i * 100, FaultSet::random_links(&net.spec.graph, frac, 17));
                }
                let epochs = sched.epochs(&FaultSet::empty());
                let mut eplan = plan.clone();
                let mut prev = FaultSet::empty();
                let (mut walk_ms, mut rerouted_total) = (0.0, 0usize);
                for (i, (_, fs)) in epochs.iter().enumerate() {
                    let t0 = Instant::now();
                    let rerouted = eplan.advance_epoch(&net.spec, &oracle.remask(fs), &prev, fs);
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    walk_ms += ms;
                    rerouted_total += rerouted;
                    let links = fs.failed_links().len();
                    epoch_extras.push((format!("epoch{i}_failed_links"), links as f64));
                    epoch_extras.push((format!("epoch{i}_rerouted_pairs"), rerouted as f64));
                    epoch_extras.push((format!("epoch{i}_walk_ms"), ms));
                    prev = fs.clone();
                }
                // What the walk must equal, and what it must beat: one
                // fresh build at the last mask.
                let t0 = Instant::now();
                let fresh =
                    FlowPlan::build(&net.spec, &oracle.remask(&prev), &comps, plan.routing());
                let rebuild_ms = t0.elapsed().as_secs_f64() * 1e3;
                epoch_extras.push(("epoch_rebuild_ms".into(), rebuild_ms));
                if eplan.network() != fresh.network() {
                    eprintln!(
                        "flow_sweep: {scale_key}: epoch walk diverged from a fresh \
                         build at {} failed links",
                        prev.failed_links().len()
                    );
                    failed = true;
                }
                bench_row(
                    &mut bench_rows,
                    "flow_epochs",
                    "epochs",
                    epochs.len() as f64,
                    "count",
                );
                bench_row(
                    &mut bench_rows,
                    "flow_epochs",
                    "rerouted_pairs",
                    rerouted_total as f64,
                    "count",
                );
                bench_row(&mut bench_rows, "flow_epochs", "walk_ms", walk_ms, "ms");
                bench_row(
                    &mut bench_rows,
                    "flow_epochs",
                    "rebuild_ms",
                    rebuild_ms,
                    "ms",
                );
            }
            if let Some(dir) = &dir {
                let mut m = RunManifest::for_network(scale_key, &net.spec);
                m.push_extra("flows", flows as f64);
                m.push_extra("build_ms", build_s * 1e3);
                m.push_extra("flows_per_sec", flows_per_sec);
                m.push_extra("solve_ms", solve_ms);
                m.push_extra("saturation_load", flow_sat);
                m.push_extra("oracle_bytes", oracle_bytes as f64);
                m.push_extra("flow_state_bytes", fnet.memory_bytes() as f64);
                m.push_extra("peak_rss_bytes", rss as f64);
                m.push_extra("endpoints_per_gb", endpoints_per_gb);
                m.push_extra("unique_pairs", census.unique_pairs as f64);
                m.push_extra("classes_hit", census.classes_hit as f64);
                m.push_extra(
                    "pairs_per_class",
                    census.unique_pairs as f64 / census.classes_hit.max(1) as f64,
                );
                m.push_extra("analytic_fallbacks", oracle.router().fallbacks() as f64);
                m.push_extra("analytic_fallback_rate", oracle.router().fallback_rate());
                for (name, value) in epoch_extras {
                    m.push_extra(name, value);
                }
                let stem = file_stem(&format!("flow_sweep_scale_{scale_key}"));
                match m.write(dir, &stem) {
                    Ok(path) => eprintln!("wrote {}", path.display()),
                    Err(e) => {
                        eprintln!("flow_sweep: writing scale manifest: {e}");
                        failed = true;
                    }
                }
            }
        }
    }

    if let Err(e) = write_bench_json(bench_rows.lines()) {
        eprintln!("flow_sweep: {e}");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
