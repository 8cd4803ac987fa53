//! Spawn the sweep and figure binaries the way a user does (`--quick`,
//! one topology) and check what only the process boundary shows: exit
//! status, CSV header and row count, that `--metrics-dir` wrote
//! parseable manifests with the keys their readers look for, and that a
//! mistyped command line is a usage error before any work starts —
//! and, where the output is cheap to make, that it is the committed
//! `results/` CSV byte for byte, or the same at any rayon width.
//!
//! The sweeps are too slow unoptimised, so all but the usage test run
//! under `cargo test --release` only.

use bench::sweep_driver::CSV_HEADER as SIM_HEADER;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Run one bench binary to completion.
fn run(exe: &str, args: &[&str], rayon_width: Option<&str>) -> Output {
    let mut cmd = Command::new(exe);
    cmd.args(args);
    if let Some(w) = rayon_width {
        cmd.env("RAYON_NUM_THREADS", w);
    }
    cmd.output().unwrap_or_else(|e| panic!("spawn {exe}: {e}"))
}

/// Stdout lines of a run that must succeed, header checked.
fn csv(out: &Output, header: &str, lines: usize) -> Vec<String> {
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {err}", out.status);
    let text = String::from_utf8(out.stdout.clone()).expect("utf-8 CSV");
    let rows: Vec<String> = text.lines().map(String::from).collect();
    assert_eq!(rows[0], header);
    assert_eq!(rows.len(), lines, "{text}");
    rows
}

/// A fresh per-test manifest directory under the target dir.
fn metrics_dir(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Just enough JSON to read a manifest back: the writer is hand-rolled
/// (no serde), so "it parses" is a real check.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn has(&self, key: &str) -> bool {
        matches!(self, Json::Obj(kv) if kv.iter().any(|(k, _)| k == key))
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
        .unwrap_or_else(|| panic!("no key {key:?} in {self:?}"))
    }

    fn num(&self, key: &str) -> f64 {
        match self.get(key) {
            Json::Num(x) => *x,
            other => panic!("{key}: {other:?} is not a number"),
        }
    }
}

struct Parser<'a> {
    text: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn peek(&mut self) -> u8 {
        while self.text.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
        *self.text.get(self.at).expect("unexpected end of JSON")
    }

    fn eat(&mut self, lit: &str) {
        assert_eq!(self.peek(), lit.as_bytes()[0], "at byte {}", self.at);
        let end = self.at + lit.len();
        assert_eq!(
            &self.text[self.at..end],
            lit.as_bytes(),
            "at byte {}",
            self.at
        );
        self.at = end;
    }

    fn string(&mut self) -> String {
        self.eat("\"");
        let start = self.at;
        while self.text[self.at] != b'"' {
            self.at += if self.text[self.at] == b'\\' { 2 } else { 1 };
        }
        self.at += 1;
        String::from_utf8(self.text[start..self.at - 1].to_vec()).expect("utf-8 string")
    }

    /// `open item (, item)* close`, or `open close`.
    fn list<T>(&mut self, open: &str, close: &str, item: fn(&mut Self) -> T) -> Vec<T> {
        self.eat(open);
        let mut out = Vec::new();
        while self.peek() != close.as_bytes()[0] {
            if !out.is_empty() {
                self.eat(",");
            }
            out.push(item(self));
        }
        self.eat(close);
        out
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => Json::Obj(self.list("{", "}", |p| {
                let key = p.string();
                p.eat(":");
                (key, p.value())
            })),
            b'[' => Json::Arr(self.list("[", "]", Self::value)),
            b'"' => Json::Str(self.string()),
            b'n' => {
                self.eat("null");
                Json::Null
            }
            b't' => {
                self.eat("true");
                Json::Bool(true)
            }
            b'f' => {
                self.eat("false");
                Json::Bool(false)
            }
            _ => {
                let start = self.at;
                while self
                    .text
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE0123456789".contains(b))
                {
                    self.at += 1;
                }
                let num = std::str::from_utf8(&self.text[start..self.at]).unwrap();
                Json::Num(
                    num.parse()
                        .unwrap_or_else(|_| panic!("bad number {num:?} at {start}")),
                )
            }
        }
    }
}

/// Parse one manifest file; it must also carry the ledger's tag block.
fn manifest(dir: &Path, stem: &str) -> Json {
    let path = dir.join(format!("{stem}.json"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut p = Parser {
        text: text.trim_end().as_bytes(),
        at: 0,
    };
    let m = p.value();
    assert_eq!(p.at, p.text.len(), "{}: trailing bytes", path.display());
    assert!(
        matches!(m.get("commit"), Json::Str(c) if !c.is_empty()),
        "{stem}"
    );
    assert!(
        m.num("host_cores") >= 1.0 && m.num("threads") >= 1.0,
        "{stem}"
    );
    assert!(m.has("engine_threads"), "{stem}");
    m
}

#[test]
fn a_mistyped_command_line_is_a_usage_error_before_any_work() {
    let fig09 = env!("CARGO_BIN_EXE_fig09_synthetic");
    for (exe, args) in [
        // A typo used to fall through to the full 20-minute sweep.
        (fig09, &["--quik"][..]),
        // A filter matching nothing used to print a header and exit 0.
        (fig09, &["--quick", "--only", "PSIQ"]),
        // Used to panic with a backtrace.
        (fig09, &["--quick", "--engine-threads", "four"]),
        (fig09, &["--quick", "--metrics-dir"]),
        // A retired flag, or another binary's, is not a silent no-op.
        (
            env!("CARGO_BIN_EXE_flow_sweep"),
            &["--quick", "--epochs", "abc"],
        ),
        (
            env!("CARGO_BIN_EXE_edst_sweep"),
            &["--quick", "--engine-threads", "2"],
        ),
        (env!("CARGO_BIN_EXE_fig12_bisection"), &["--ful"]),
    ] {
        let out = run(exe, args, None);
        assert_eq!(out.status.code(), Some(2), "{exe} {args:?}");
        assert!(
            out.stdout.is_empty(),
            "{exe} {args:?} printed before failing"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: "), "{exe} {args:?}: {err}");
    }
    let out = run(fig09, &["--only", "PSIQ"], None);
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("PS-IQ PS-Pal BF HX DF SF MF FT"), "{err}");
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn fig09_quick_writes_a_monitored_manifest() {
    let dir = metrics_dir("fig09");
    let args = [
        "--quick",
        "--only",
        "PS-IQ",
        "--engine-threads",
        "2",
        "--metrics-dir",
    ];
    let out = run(
        env!("CARGO_BIN_EXE_fig09_synthetic"),
        &[&args[..], &[dir.to_str().unwrap()]].concat(),
        None,
    );
    csv(&out, SIM_HEADER, 27);
    let m = manifest(&dir, "PS-IQ");
    assert_eq!(m.num("engine_threads"), 2.0);
    for key in ["mean_link_utilization", "stalls", "latency"] {
        assert!(m.get("metrics").has(key), "{key}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn fault_sweep_quick_degrades_monotonically() {
    let dir = metrics_dir("fault_sweep");
    let out = run(
        env!("CARGO_BIN_EXE_fault_sweep"),
        &[
            "--quick",
            "--only",
            "DF",
            "--metrics-dir",
            dir.to_str().unwrap(),
        ],
        None,
    );
    let header = "topology,failed_fraction,failed_links,saturation_load,unroutable,allreduce_us";
    csv(&out, header, 3); // 2 fault fractions
    let pristine = manifest(&dir, "fault_DF_0");
    let faulted = manifest(&dir, "fault_DF_0_05");
    let (p, f) = (pristine.get("extra"), faulted.get("extra"));
    assert_eq!(p.num("failed_links"), 0.0);
    assert_eq!(p.num("unroutable"), 0.0);
    assert!(f.num("failed_links") > 0.0);
    assert!(f.num("saturation_load") <= p.num("saturation_load"));
    assert!(faulted.get("metrics").has("unroutable"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn fault_recovery_quick_records_the_transient() {
    let dir = metrics_dir("fault_recovery");
    let out = run(
        env!("CARGO_BIN_EXE_fault_recovery"),
        &[
            "--quick",
            "--only",
            "DF",
            "--metrics-dir",
            dir.to_str().unwrap(),
        ],
        None,
    );
    let header = "topology,load,burst_fraction,fail_cycle,recover_cycle,baseline_latency,\
                  peak_latency,faulted_in_flight,rerouted,recovery_cycles,allreduce_pristine_us,\
                  allreduce_burst_us,edst_trees,edst_pristine_us,edst_burst_us";
    csv(&out, header, 2); // 1 topology
    let m = manifest(&dir, "fault_recovery_DF");
    let extra = m.get("extra");
    assert!(extra.num("fail_cycle") < extra.num("recover_cycle"));
    assert!(extra.num("baseline_latency") > 0.0);
    assert!(extra.num("peak_latency") >= extra.num("baseline_latency"));
    assert!(extra.num("allreduce_pristine_us") > 0.0);
    assert!(extra.num("edst_trees") >= 2.0);
    assert!(extra.num("edst_pristine_us") > 0.0);
    for key in ["recovery_cycles", "allreduce_burst_us", "edst_burst_us"] {
        assert!(extra.has(key), "{key}");
    }
    assert!(m.get("metrics").has("watchdog"));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn fault_recovery_quick_rows_do_not_depend_on_the_engine_width() {
    let exe = env!("CARGO_BIN_EXE_fault_recovery");
    let at = |threads| {
        run(
            exe,
            &["--quick", "--only", "DF", "--engine-threads", threads],
            None,
        )
    };
    let sequential = at("1");
    assert!(sequential.status.success(), "{:?}", sequential.status);
    assert_eq!(sequential.stdout, at("2").stdout);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn flow_sweep_quick_cross_validates_one_point() {
    let dir = metrics_dir("flow_sweep");
    let out = run(
        env!("CARGO_BIN_EXE_flow_sweep"),
        &["--quick", "--metrics-dir", dir.to_str().unwrap()],
        None,
    );
    let header = "phase,topology,pattern,routers,endpoints,flows,exact_sat,cycle_sat,flow_sat,rel_err,delivered_err";
    let rows = csv(&out, header, 2); // 1 xval point; exit 0 means its gates held
    assert_eq!(
        rows[1],
        "xval,PS-q3-IQ3,permutation,104,416,412,0.1000,0.1484,0.1411,0.0519,0.0001"
    );
    let extra = manifest(&dir, "flow_sweep_PS-q3-IQ3");
    let extra = extra.get("extra");
    assert!(extra.num("xval_rel_err_permutation") <= 0.10);
    assert!(extra.num("xval_delivered_err_permutation") <= 0.02);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn fig11_quick_rows_do_not_depend_on_the_rayon_width() {
    let fig11 = env!("CARGO_BIN_EXE_fig11_motifs");
    let args = ["--quick", "--only", "DF"];
    let narrow = run(fig11, &args, Some("1"));
    csv(&narrow, bench::motif_sweep::SWEEP_HEADER, 5); // 2 modes × 2 motifs
    assert_eq!(narrow.stdout, run(fig11, &args, Some("4")).stdout);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn edst_sweep_and_fault_recovery_quick_rows_do_not_depend_on_the_rayon_width() {
    // Each builds a model per point on clones of one spec, and those
    // models share the spec's port masks across rayon workers.
    for exe in [
        env!("CARGO_BIN_EXE_edst_sweep"),
        env!("CARGO_BIN_EXE_fault_recovery"),
    ] {
        let narrow = run(exe, &["--quick"], Some("1"));
        assert!(narrow.status.success(), "{exe}: {:?}", narrow.status);
        assert!(!narrow.stdout.is_empty(), "{exe}");
        let wide = run(exe, &["--quick"], Some("4"));
        assert!(
            narrow.stdout == wide.stdout,
            "{exe} differs at rayon width 4"
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn table3_and_channel_load_print_the_committed_csvs() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for (exe, file) in [
        (env!("CARGO_BIN_EXE_table3_configs"), "table3_configs.csv"),
        (
            env!("CARGO_BIN_EXE_ablation_channel_load"),
            "ablation_channel_load.csv",
        ),
    ] {
        let out = run(exe, &[], None);
        assert!(out.status.success(), "{exe}: {:?}", out.status);
        let committed = std::fs::read(results.join(file)).expect("committed CSV");
        assert!(
            out.stdout == committed,
            "{exe} no longer prints results/{file}:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn fig14_quick_rows_do_not_depend_on_the_rayon_width() {
    let fig14 = env!("CARGO_BIN_EXE_fig14_fault_tolerance");
    let narrow = run(fig14, &["--quick"], Some("1"));
    assert!(narrow.status.success(), "{:?}", narrow.status);
    assert!(!narrow.stdout.is_empty());
    assert_eq!(narrow.stdout, run(fig14, &["--quick"], Some("4")).stdout);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn edst_sweep_quick_writes_one_manifest_per_topology() {
    let dir = metrics_dir("edst_sweep");
    let out = run(
        env!("CARGO_BIN_EXE_edst_sweep"),
        &["--quick", "--metrics-dir", dir.to_str().unwrap()],
        None,
    );
    csv(&out, bench::edst_sweep::CSV_HEADER, 20); // 6 PS-IQ + 6 BF + 7 PS-d9 rows
    let m = manifest(&dir, "edst_sweep_PS-IQ");
    assert_eq!(m.num("routers"), 1064.0);
    let extra = m.get("extra");
    assert!(extra.num("edst_trees") >= 2.0);
    assert!(extra.num("striped_bcast_us") > 0.0);
    assert!(extra.num("striped_bcast_lose1_us") > 0.0);
    manifest(&dir, "edst_sweep_BF");
    assert!(
        manifest(&dir, "edst_sweep_PS-d9")
            .get("extra")
            .num("ring_allreduce_us")
            > 0.0
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the quick sweeps; use --release")]
fn negotiate_sweep_quick_is_identical_at_any_width_and_records_the_curve() {
    let neg = env!("CARGO_BIN_EXE_negotiate_sweep");
    let dir = metrics_dir("negotiate_sweep");
    let narrow = run(
        neg,
        &[
            "--quick",
            "--only",
            "PS-IQ",
            "--metrics-dir",
            dir.to_str().unwrap(),
        ],
        Some("1"),
    );
    // One flow-level row per pattern.
    let rows = csv(&narrow, bench::negotiate_sweep::CSV_HEADER, 3);
    assert!(rows[1].starts_with("adversarial,PS-IQ,"), "{}", rows[1]);
    assert!(rows[2].starts_with("permutation,PS-IQ,"), "{}", rows[2]);
    let wide = run(neg, &["--quick", "--only", "PS-IQ"], Some("4"));
    assert_eq!(narrow.stdout, wide.stdout, "rayon width 4");
    // No engine runs, so there is nothing for the flag to shard.
    let sharded = run(neg, &["--engine-threads", "4"], None);
    assert_eq!(sharded.status.code(), Some(2));
    let err = String::from_utf8_lossy(&sharded.stderr);
    assert!(
        err.contains("unexpected argument \"--engine-threads\""),
        "{err}"
    );
    let m = manifest(&dir, "negotiate_PS-IQ_adversarial");
    assert_eq!(m.num("routers"), 1064.0);
    assert_eq!(m.num("threads"), 1.0);
    assert!(m.get("extra").num("curve_iter0") > 0.0); // convergence curve recorded
    assert_eq!(m.get("metrics"), &Json::Null); // flow-level: no monitored point
    assert_eq!(m.get("sim"), &Json::Null);
    manifest(&dir, "negotiate_PS-IQ_permutation");
}
