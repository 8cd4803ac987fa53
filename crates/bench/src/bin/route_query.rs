//! Route-query service benchmark: queries/sec and per-query latency of
//! the `routed` oracle, pristine and under concurrent fault churn.
//!
//! Three phases per topology:
//!
//! 1. `single_hop` — a next-hop query storm against the pristine oracle
//!    through [`measure_query_latency`] (batch-level qps, log2-bucket
//!    p50/p99);
//! 2. `batch_paths` — full [`RouteAnswer`] batches (k = 4 alternatives)
//!    through the rayon-sharded bulk path;
//! 3. `churn` — the same next-hop storm while a churn thread prepares
//!    and installs fault-epoch oracles through an [`EpochSwapper`] as
//!    fast as it can (a seeded burst failing/recovering 5% of links).
//!    Every batch snapshots the swapper, so no query can observe a torn
//!    table; the acceptance gate is p99(churn) ≤ 2× p99(pristine).
//!
//! `--oracle analytic` swaps the CSR route table for the table-free
//! §9.2 analytic backend (PolarStar keys only). Queries then pay
//! distance-kernel probes per neighbor instead of an arena read —
//! slower per query, so the storm shrinks — but an epoch install
//! collapses from a full BFS sweep to a fault-mask swap; the analytic
//! gates are a sub-19.6 ms install (≥10× under the recorded 196 ms CSR
//! remask) and a zero backstop rate, not the 1M qps floor. Faulted
//! queries that lose every minimal path escalate to one degraded BFS,
//! so churn p99 is reported but ungated; the manifest says how many do
//! (`analytic_escalated_share`, with the intact and unreachable shares
//! beside it, over the storm's first pairs on the burst epoch).
//!
//! CSV `topology,routers,phase,queries,elapsed_ms,qps,p50_ns,p99_ns,epoch_swaps`.
//! `--quick` shrinks the storm; `--only <key>` adds topologies beyond
//! the default PS-IQ; `--metrics-dir <path>` writes one `RunManifest`
//! JSON per topology with the qps/p99 scalars (the `BENCH_routed.json`
//! criterion baseline comes from `benches/route_query.rs`).

use bench::manifest::file_stem;
use bench::sweep_driver::{measure_query_latency, QueryLatencyStats};
use bench::{
    metrics_dir, oracle_mode, quick_mode, selected_keys, table3_network, table3_polarstar,
    RunManifest, TABLE3_KEYS,
};
use polarstar_routed::{EpochSwapper, Oracle, QueryBatch, Regime};
use polarstar_topo::fault::FaultSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Workload seed: the same batch drives every phase.
const QUERY_SEED: u64 = 0x60E5;
/// Churn-burst sampling seed (distinct from `fault_sweep`'s so the two
/// experiments stay independent).
const CHURN_SEED: u64 = 0xC4A7;
/// Fraction of links the churn burst fails per odd epoch.
const CHURN_FRACTION: f64 = 0.05;
/// Pairs of the storm whose [`Regime`] on the burst epoch is sampled
/// for the manifest.
const REGIME_SAMPLE: usize = 32_768;
/// The analytic epoch-install gate: ≥10× under the recorded 196 ms CSR
/// remask (BENCH_routed.json `remask_install_ps_iq`).
const ANALYTIC_INSTALL_GATE_NS: u64 = 19_600_000;

fn csv_row(key: &str, routers: usize, phase: &str, s: &QueryLatencyStats, swaps: u64) -> String {
    format!(
        "{key},{routers},{phase},{},{:.2},{:.0},{},{},{swaps}",
        s.queries,
        s.elapsed_ns as f64 / 1e6,
        s.qps(),
        s.p50_ns,
        s.p99_ns,
    )
}

fn main() {
    let quick = quick_mode();
    let mode = oracle_mode();
    let analytic = mode == "analytic";
    let keys = selected_keys(&TABLE3_KEYS, &["PS-IQ"]);
    // The analytic backend trades per-query latency for O(1) installs;
    // size the storm to its per-query kernel probes.
    let storm_len = match (analytic, quick) {
        (false, false) => 4_000_000,
        (false, true) => 200_000,
        (true, false) => 400_000,
        (true, true) => 20_000,
    };
    let batch_size = 4096;
    let k_alternatives = 4;

    println!("topology,routers,phase,queries,elapsed_ms,qps,p50_ns,p99_ns,epoch_swaps");
    let mut failed = false;
    for key in keys {
        let oracle = if analytic {
            match table3_polarstar(key) {
                Ok(net) => Oracle::new_analytic(net),
                Err(e) => {
                    eprintln!("route_query: {key}: {e}");
                    failed = true;
                    continue;
                }
            }
        } else {
            match table3_network(key) {
                Ok(spec) => Oracle::new(Arc::new(spec)),
                Err(e) => {
                    eprintln!("route_query: {key}: {e}");
                    failed = true;
                    continue;
                }
            }
        };
        let routers = oracle.spec().routers();
        let n = routers as u32;
        let workload = QueryBatch::random(storm_len, n, k_alternatives, QUERY_SEED);
        let pairs: Vec<(u32, u32)> = workload.queries.iter().map(|q| (q.src, q.dst)).collect();

        // One-off epoch-install cost of this backend (the table path
        // reruns one BFS per destination; the analytic path swaps a
        // fault mask).
        let burst = FaultSet::random_links(&oracle.spec().graph, CHURN_FRACTION, CHURN_SEED);
        let t0 = std::time::Instant::now();
        let masked = oracle.remask(&burst, 1);
        let remask_ns = t0.elapsed().as_nanos() as u64;
        // Which answer path the burst epoch forces on the storm's pairs:
        // (intact, escalated, unreachable) shares.
        let regime_shares = masked.analytic().map(|a| {
            let sample = &pairs[..pairs.len().min(REGIME_SAMPLE)];
            let mut hits = [0usize; 3];
            for &(s, d) in sample {
                match a.regime(s, d) {
                    Regime::Pristine => {}
                    Regime::MinimalDagIntact => hits[0] += 1,
                    Regime::Escalated => hits[1] += 1,
                    Regime::Unreachable => hits[2] += 1,
                }
            }
            hits.map(|h| h as f64 / sample.len() as f64)
        });
        drop(masked);

        // Phase 1: pristine single-hop storm.
        let pristine = if analytic {
            measure_query_latency(|| oracle.analytic().unwrap(), &pairs, batch_size)
        } else {
            measure_query_latency(|| oracle.table().unwrap(), &pairs, batch_size)
        };
        println!("{}", csv_row(key, routers, "single_hop", &pristine, 0));

        // Phase 2: full answers (paths + k alternatives), sharded.
        let path_batch = QueryBatch::new(workload.queries[..storm_len / 8].to_vec());
        let t0 = std::time::Instant::now();
        let answers = oracle.answer_batch_sharded(&path_batch);
        let batch_stats = QueryLatencyStats {
            queries: answers.len() as u64,
            elapsed_ns: t0.elapsed().as_nanos() as u64,
            snapshots: 1,
            ..Default::default()
        };
        std::hint::black_box(&answers);
        println!("{}", csv_row(key, routers, "batch_paths", &batch_stats, 0));

        // Phase 3: the same storm under epoch churn. The churn thread
        // alternates burst/pristine epochs until the storm finishes.
        let fallbacks_before = oracle
            .analytic()
            .map(|a| (a.router().fallbacks(), a.router().routes_computed()));
        let swapper = EpochSwapper::new(oracle);
        let done = AtomicBool::new(false);
        let pristine_set = FaultSet::empty();
        let churn = std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let mut epoch = 0u64;
                while !done.load(Ordering::Acquire) {
                    epoch += 1;
                    let f = if epoch % 2 == 1 {
                        &burst
                    } else {
                        &pristine_set
                    };
                    swapper.advance(f, epoch);
                }
                epoch
            });
            let stats = measure_query_latency(|| swapper.load(), &pairs, batch_size);
            done.store(true, Ordering::Release);
            let epochs = handle.join().expect("churn thread");
            (stats, epochs)
        });
        let (churned, swaps) = churn;
        println!("{}", csv_row(key, routers, "churn", &churned, swaps));

        // Acceptance gates. Table backend (ROADMAP): ≥1M single-hop qps
        // on pristine PS-IQ, churn p99 within 2× of pristine. Analytic
        // backend: epoch install ≥10× under the 196 ms CSR remask, and
        // the §9.2 templates never take the backstop on pristine PS-IQ.
        if !analytic {
            let qps_ok = key != "PS-IQ" || quick || pristine.qps() >= 1.0e6;
            let p99_ok = churned.p99_ns <= pristine.p99_ns.saturating_mul(2);
            if !qps_ok {
                eprintln!(
                    "route_query: {key}: single-hop qps {:.0} below the 1M floor",
                    pristine.qps()
                );
                failed = true;
            }
            if !p99_ok {
                eprintln!(
                    "route_query: {key}: churn p99 {}ns regresses >2x over pristine {}ns",
                    churned.p99_ns, pristine.p99_ns
                );
                failed = true;
            }
        } else {
            if remask_ns > ANALYTIC_INSTALL_GATE_NS {
                eprintln!(
                    "route_query: {key}: analytic remask {remask_ns}ns above the \
                     {ANALYTIC_INSTALL_GATE_NS}ns (196 ms / 10) gate"
                );
                failed = true;
            }
            if key == "PS-IQ" {
                if let Some((f0, _)) = fallbacks_before {
                    if f0 > 0 {
                        eprintln!("route_query: {key}: {f0} pristine backstop routes");
                        failed = true;
                    }
                }
            }
        }

        if let Some(dir) = metrics_dir() {
            let base = swapper.base();
            let mut m = RunManifest::for_network(key, base.spec());
            m.push_extra("storm_queries", pristine.queries as f64);
            m.push_extra("single_hop_qps", pristine.qps());
            m.push_extra("single_hop_p50_ns", pristine.p50_ns as f64);
            m.push_extra("single_hop_p99_ns", pristine.p99_ns as f64);
            m.push_extra("batch_paths_qps", batch_stats.qps());
            m.push_extra("churn_qps", churned.qps());
            m.push_extra("churn_p99_ns", churned.p99_ns as f64);
            m.push_extra("epoch_swaps", swaps as f64);
            m.push_extra(
                "churn_p99_ratio",
                churned.p99_ns as f64 / pristine.p99_ns.max(1) as f64,
            );
            m.push_extra("symmetry_classes", base.classes().num_classes() as f64);
            m.push_extra("remask_install_ns", remask_ns as f64);
            m.push_extra("backend_memory_bytes", base.memory_bytes() as f64);
            if let Some(a) = base.analytic() {
                m.push_extra("analytic_fallbacks", a.router().fallbacks() as f64);
                m.push_extra("analytic_fallback_rate", a.router().fallback_rate());
            }
            if let Some([intact, escalated, unreachable]) = regime_shares {
                m.push_extra("analytic_intact_share", intact);
                m.push_extra("analytic_escalated_share", escalated);
                m.push_extra("analytic_unreachable_share", unreachable);
            }
            let stem = if analytic {
                file_stem(&format!("route_query_analytic_{key}"))
            } else {
                file_stem(&format!("route_query_{key}"))
            };
            match m.write(&dir, &stem) {
                Ok(path) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("route_query: writing manifest for {key}: {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
