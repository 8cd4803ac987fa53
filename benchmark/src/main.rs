//! `perf_report`: one stage-by-stage benchmark for the whole evaluation
//! stack (topology → route backend → traffic → flow / cycle / motif →
//! route service). See README.md for the metric and workload definitions.
//!
//! ```text
//! perf_report --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]] [--reps <n>]
//! perf_report --list
//! ```
//!
//! One process runs one workload. Standard output ends with one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics on an untraced run, the per-layer metrics on a traced one.

mod harness;
mod json;
mod spec;
mod trace;
mod workloads;
mod yardstick;

use harness::{Report, RunArgs};
use json::Json;
use std::process::ExitCode;

const USAGE: &str = "usage: perf_report --workload <name> [--seed <n>] [--seconds <s>] \
                     [--trace [0|1]] [--reps <n>] | --list";

/// Seconds a run measures when `--seconds` is not given; equals
/// `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 10.0;

struct Cli {
    workload: String,
    run: RunArgs,
}

enum Command {
    List,
    Run(Cli),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut run = RunArgs {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        reps: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--list" => return Ok(Command::List),
            "--workload" => workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                let v = value("a number")?;
                run.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                run.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--reps" => {
                let v = value("a number")?;
                run.reps = Some(
                    v.parse()
                        .ok()
                        .filter(|&n: &usize| n >= 1)
                        .ok_or_else(|| format!("bad --reps {v:?}"))?,
                );
            }
            // `--trace` alone turns tracing on; the driver passes 0 or 1.
            "--trace" => {
                run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| USAGE.to_string())?;
    Ok(Command::Run(Cli { workload, run }))
}

fn run_workload(name: &str, args: &RunArgs) -> Option<Report> {
    use workloads::{cycle, flow, motif, routed};
    Some(match name {
        "cycle_psiq" => harness::run::<cycle::CyclePsiq>(args),
        "flow_million" => harness::run::<flow::FlowMillion>(args),
        "flow_scale32_epochs" => harness::run::<flow::FlowScale32Epochs>(args),
        "routed_table_churn" => harness::run::<routed::RoutedTableChurn>(args),
        "routed_analytic_churn" => harness::run::<routed::RoutedAnalyticChurn>(args),
        "motif_psiq" => harness::run::<motif::MotifPsiq>(args),
        _ => return None,
    })
}

/// `benchmark/out/trace_<workload>.json`: every span and counter of the
/// traced run.
fn write_trace(workload: &str, seed: u64, report: &Report) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace_{workload}.json"));
    let doc = Json::Obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::Int(seed)),
        ("spans", report.tracer.to_json()),
        (
            "counters",
            Json::Map(
                report
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&path, format!("{doc}\n"))?;
    Ok(path)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(Command::List) => {
            println!("{}", spec::list_json());
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(cli)) => cli,
        Err(msg) => {
            eprintln!("perf_report: {msg}");
            return ExitCode::from(2);
        }
    };

    // Pin the rayon width before any layer reads it; every result is
    // reported with the width and core count that produced it.
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = harness::RAYON_WIDTH;
    harness::set_rayon_width(threads);

    let Some(report) = run_workload(&cli.workload, &cli.run) else {
        let known: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perf_report: unknown workload {:?}; known: {}",
            cli.workload,
            known.join(", ")
        );
        return ExitCode::from(2);
    };

    if cli.run.trace {
        match write_trace(&cli.workload, cli.run.seed, &report) {
            Ok(path) => eprintln!("perf_report: wrote {}", path.display()),
            // The per-layer table below does not depend on the file.
            Err(e) => eprintln!("perf_report: trace file not written: {e}"),
        }
    }

    for m in report.metrics.iter().filter(|m| m.touched) {
        println!("{} {} {} {}", cli.workload, m.name, m.value, m.unit);
    }
    let context = Json::Obj(vec![
        ("workload", Json::str(&cli.workload)),
        ("seed", Json::Int(cli.run.seed)),
        ("trace", Json::Bool(cli.run.trace)),
        ("threads", Json::Int(threads as u64)),
        ("host_cores", Json::Int(host_cores as u64)),
        ("reps", Json::Int(report.reps as u64)),
        ("host_speed", Json::Num(report.host_speed)),
    ]);
    println!("# context {context}");
    let result = Json::Obj(vec![
        ("correct", Json::Bool(report.failed == 0)),
        ("attempted", Json::Int(report.attempted)),
        ("failed", Json::Int(report.failed)),
        (
            "metrics",
            Json::Map(
                report
                    .metrics
                    .iter()
                    .map(|m| {
                        let entry = Json::Obj(vec![
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(m.unit)),
                        ]);
                        (m.name.to_string(), entry)
                    })
                    .collect(),
            ),
        ),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
