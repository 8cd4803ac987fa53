//! The measuring loop every workload runs under: cold set-up samples,
//! a closed loop of timed bodies, verification of the last body's
//! outputs, and (on a traced run) the per-layer table.

use crate::spec::{Source, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use crate::yardstick::Yardstick;
use std::time::Instant;

/// One workload: everything it needs is built by `setup`, one unit of
/// timed work is `body`, and the rest looks at what the body returned.
pub trait Workload: Sized {
    /// What one body produced; the harness keeps only the latest.
    type Out;

    /// Cold construction of every input of the body. The library sees
    /// only inputs generated from `seed`.
    fn setup(seed: u64, tr: &mut Tracer) -> Self;

    /// One closed-loop pass; calls into the layers sit inside spans.
    fn body(&mut self, tr: &mut Tracer) -> Self::Out;

    /// The body's exact work count (numerator of `work_per_s`).
    fn work(&self, out: &Self::Out) -> u64;

    /// Deterministic outputs by name: simulated results and exact
    /// counts. Every repetition must return the same list, and names
    /// from `spec::PER_LAYER` are reported on the traced run.
    fn exact(&self, out: &Self::Out) -> Vec<(String, f64)>;

    /// Correctness checks on the last body's outputs.
    fn verify(&mut self, out: &Self::Out, checks: &mut Checks);

    /// Traced run only: per-layer values that are not plain span times,
    /// and micro-probes of single layers outside the body.
    fn probe(&mut self, out: &Self::Out, tr: &Tracer, values: &mut Values);
}

/// Correctness tally: `failed / attempted` is the failure fraction.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one check; a failure is described on stderr (the first few).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perf_report: CHECK FAILED: {}", what());
            }
        }
    }
}

/// Named per-layer values set by a workload.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// Owned copy of a static name/value list (the shape `exact` returns).
pub fn named(pairs: &[(&str, f64)]) -> Vec<(String, f64)> {
    pairs.iter().map(|&(n, v)| (n.to_string(), v)).collect()
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Linear-interpolated percentile; 0 for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set (VmHWM) in MiB; 0 where /proc is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|l| l.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub struct RunArgs {
    pub seed: u64,
    /// Keep starting bodies until this much time has been measured.
    pub seconds: f64,
    pub trace: bool,
    /// Fixed repetition count instead of the time-based loop (smoke).
    pub reps: Option<usize>,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// False for a per-layer metric of a layer this workload never
    /// entered (reported as 0, left out of the human-readable table).
    pub touched: bool,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Timed repetitions (one set-up sample and one body each).
    pub reps: usize,
    /// `Yardstick::host_speed` over the run.
    pub host_speed: f64,
    pub tracer: Tracer,
    /// Every `exact()` entry of the last body, for the trace file.
    pub counters: Vec<(String, f64)>,
}

/// Width of the libraries' rayon fan-outs (route-table BFS sweeps, flow
/// routing) while anything is timed. One, not the core count: on the
/// 2-core reference box a second worker makes a body wait for whichever
/// core the host disturbs, which widened the run-to-run quartile spread
/// of `flow_scale32_epochs` from 1 % to 5-23 % (README "Steadiness").
/// The engine's own sharding (`SimConfig::threads`) is not rayon and is
/// exercised by `cycle_psiq` at 2 threads regardless.
pub const RAYON_WIDTH: usize = 1;

/// The vendored rayon shim reads this variable on every fan-out. Only
/// call while no other thread runs.
pub fn set_rayon_width(width: usize) {
    std::env::set_var("RAYON_NUM_THREADS", width.to_string());
}

/// Fewest repetitions a time-based run accepts.
const MIN_REPS: usize = 3;
/// A construction faster than this is looped so one set-up sample spans
/// `SHORT_SETUP_SPAN_S`, and the sample is span / constructions.
const SHORT_SETUP_S: f64 = 0.020;
const SHORT_SETUP_SPAN_S: f64 = 0.040;

pub fn run<W: Workload>(args: &RunArgs) -> Report {
    let mut tr = Tracer::new();
    let mut checks = Checks::default();
    let mut first_exact: Option<Vec<(String, f64)>> = None;
    let mut last: Option<W::Out> = None;

    // One unrecorded construction (it sizes the set-up samples) and, on a
    // time-based run, one unrecorded body, so that caches, the allocator
    // and the CPU clock are in their steady state when timing starts.
    let t0 = Instant::now();
    let mut w = Some(W::setup(args.seed, &mut tr));
    let first_setup_s = t0.elapsed().as_secs_f64();
    let setups_per_sample = if first_setup_s < SHORT_SETUP_S {
        (SHORT_SETUP_SPAN_S / first_setup_s.max(1e-6)).ceil() as usize
    } else {
        1
    };
    if args.reps.is_none() {
        let state = w.as_mut().expect("constructed above");
        let out = state.body(&mut tr);
        first_exact = Some(state.exact(&out));
        last = Some(out);
    }

    // Closed loop, one client. A repetition is a cold construction of the
    // body's inputs, then the body; the next one starts when this one
    // returned. Set-up samples therefore spread over the whole run
    // instead of its first half second, which one burst of host noise
    // would cover. Yardstick passes bracket both (see yardstick.rs). A
    // traced run records every repetition.
    let mut yardstick = Yardstick::new();
    let mut setup_samples: Vec<f64> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    // Spans recorded inside bodies and the raw time those bodies took.
    let mut body_spans = 0;
    let mut raw_body_s = 0.0;
    let started = Instant::now();
    loop {
        drop(last.take());
        let pass_before_setup = yardstick.pass();
        let t0 = Instant::now();
        for _ in 0..setups_per_sample {
            drop(w.take());
            tr.begin_rep(args.trace);
            w = Some(W::setup(args.seed, &mut tr));
        }
        let setup_s = t0.elapsed().as_secs_f64() / setups_per_sample as f64;
        let pass_before_body = yardstick.pass();
        setup_samples.push(Yardstick::reference_s(
            setup_s,
            pass_before_setup,
            pass_before_body,
        ));
        let state = w.as_mut().expect("constructed above");

        tr.begin_rep(args.trace);
        let spans_before = tr.span_count();
        let t0 = Instant::now();
        let open = tr.enter("bench.body");
        let out = state.body(&mut tr);
        tr.exit(open);
        let wall_s = t0.elapsed().as_secs_f64();
        raw_body_s += wall_s;
        let pass_after_body = yardstick.pass();
        walls.push(Yardstick::reference_s(
            wall_s,
            pass_before_body,
            pass_after_body,
        ));
        body_spans += tr.span_count() - spans_before;

        let exact = state.exact(&out);
        match &first_exact {
            None => first_exact = Some(exact),
            Some(first) => checks.check(*first == exact, || {
                format!("outputs differ between repetitions: {first:?} vs {exact:?}")
            }),
        }
        last = Some(out);

        let done = match args.reps {
            Some(n) => walls.len() >= n,
            None => walls.len() >= MIN_REPS && started.elapsed().as_secs_f64() >= args.seconds,
        };
        if done {
            break;
        }
    }
    let mut w = w.expect("constructed in the loop");
    let rss_mb = peak_rss_mb();
    let out = last.expect("the loop runs at least one body");
    let counters = first_exact.expect("set by the first body");
    let work = w.work(&out);

    w.verify(&out, &mut checks);

    let mut values = Values::default();
    for (name, v) in &counters {
        if let Some(m) = PER_LAYER.iter().find(|m| m.name == name) {
            values.set(m.name, *v);
        }
    }
    let mut metrics = Vec::new();
    if args.trace {
        values.set("bench.work", work as f64);
        values.set("bench.reps", walls.len() as f64);
        values.set("bench.host_speed", yardstick.host_speed());
        values.set(
            "bench.trace_overhead_frac",
            body_spans as f64 * Tracer::calibrate_ns_per_span() / (raw_body_s * 1e9),
        );
        w.probe(&out, &tr, &mut values);
        for m in PER_LAYER {
            let (value, touched) = match m.source {
                Source::SpanMs(span) => {
                    let per_rep = tr.self_ns_per_rep(span);
                    (median(&per_rep) / 1e6, !per_rep.is_empty())
                }
                Source::Value => {
                    let v = values.get(m.name);
                    (v.unwrap_or(0.0), v.is_some())
                }
            };
            metrics.push(Metric {
                name: m.name,
                unit: m.unit,
                value,
                touched,
            });
        }
    } else {
        let wall_s = median(&walls);
        for m in END_TO_END {
            let value = match m.name {
                "setup_s" => median(&setup_samples),
                "wall_s" => wall_s,
                "work_per_s" => work as f64 / wall_s,
                "peak_rss_mb" => rss_mb,
                other => unreachable!("no measurement for end-to-end metric {other}"),
            };
            metrics.push(Metric {
                name: m.name,
                unit: m.unit,
                value,
                touched: true,
            });
        }
    }

    Report {
        attempted: checks.attempted,
        failed: checks.failed,
        metrics,
        reps: walls.len(),
        host_speed: yardstick.host_speed(),
        tracer: tr,
        counters,
    }
}
