//! Run manifests: JSON provenance records written next to each figure's
//! CSV so a plotted point can be traced back to the exact topology,
//! simulator configuration, seed, and observed metrics that produced it
//! — and, through the `commit` / `host_cores` / `threads` tags it shares
//! with the `benchmark/` ledger rows, to the timings of the same commit.

use polarstar_netsim::engine::SimConfig;
use polarstar_netsim::monitor::MetricsReport;
use polarstar_topo::network::NetworkSpec;
use std::io::Write;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

/// Manifest JSON schema version; bump on breaking field changes.
pub const MANIFEST_SCHEMA_VERSION: u32 = 1;

/// Provenance record for one benchmark run on one topology.
#[derive(Clone, Debug)]
pub struct RunManifest {
    /// Registry key ("PS-IQ", "DF", ...).
    pub key: String,
    /// Display name of the built network.
    pub name: String,
    /// Router count.
    pub routers: usize,
    /// Endpoint count.
    pub endpoints: usize,
    /// Total radix (max network degree + endpoints per router).
    pub radix: usize,
    /// Group count (1 for flat topologies).
    pub groups: usize,
    /// Routing-policy label from the spec ("flat-minimal" / ...).
    pub routing_policy: &'static str,
    /// Routing algorithm label ("MIN"/"UGAL"), if a sim ran.
    pub routing: Option<&'static str>,
    /// Traffic pattern label, if a sim ran.
    pub pattern: Option<String>,
    /// Offered load of the monitored point, if a sim ran.
    pub load: Option<f64>,
    /// Simulator configuration of the monitored point.
    pub sim: Option<SimConfig>,
    /// Full monitor metrics of the monitored point.
    pub metrics: Option<MetricsReport>,
    /// Free-form named scalars for analytic (non-simulated) binaries.
    pub extra: Vec<(String, f64)>,
}

impl RunManifest {
    /// Topology-only manifest (no simulation attached).
    pub fn for_network(key: &str, net: &NetworkSpec) -> Self {
        RunManifest {
            key: key.to_string(),
            name: net.name.clone(),
            routers: net.routers(),
            endpoints: net.total_endpoints(),
            radix: net.radix(),
            groups: net.num_groups(),
            routing_policy: net.routing_policy().label(),
            routing: None,
            pattern: None,
            load: None,
            sim: None,
            metrics: None,
            extra: Vec::new(),
        }
    }

    /// Attach the monitored simulation point that produced `metrics`.
    pub fn with_sim(
        mut self,
        routing: &'static str,
        pattern: impl Into<String>,
        load: f64,
        cfg: &SimConfig,
        metrics: MetricsReport,
    ) -> Self {
        self.routing = Some(routing);
        self.pattern = Some(pattern.into());
        self.load = Some(load);
        self.sim = Some(cfg.clone());
        self.metrics = Some(metrics);
        self
    }

    /// Add a named scalar (analytic binaries: bisection ratios, storage
    /// bytes, ...).
    pub fn push_extra(&mut self, name: impl Into<String>, value: f64) {
        self.extra.push((name.into(), value));
    }

    /// Serialize to JSON (hand-rolled; the build has no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"schema_version\": {MANIFEST_SCHEMA_VERSION},\n"
        ));
        // The ledger's tag block, read when the record is written:
        // `threads` is the rayon fan-out width (`RAYON_NUM_THREADS`,
        // else the host's cores), `engine_threads` the monitored run's
        // `--engine-threads`.
        s.push_str(&format!("  \"commit\": {},\n", json_str(commit())));
        s.push_str(&format!("  \"host_cores\": {},\n", host_cores()));
        s.push_str(&format!(
            "  \"threads\": {},\n",
            rayon::current_num_threads()
        ));
        match self.sim.as_ref().and_then(|c| c.threads) {
            Some(t) => s.push_str(&format!("  \"engine_threads\": {t},\n")),
            None => s.push_str("  \"engine_threads\": null,\n"),
        }
        s.push_str(&format!("  \"key\": {},\n", json_str(&self.key)));
        s.push_str(&format!("  \"name\": {},\n", json_str(&self.name)));
        s.push_str(&format!("  \"routers\": {},\n", self.routers));
        s.push_str(&format!("  \"endpoints\": {},\n", self.endpoints));
        s.push_str(&format!("  \"radix\": {},\n", self.radix));
        s.push_str(&format!("  \"groups\": {},\n", self.groups));
        s.push_str(&format!(
            "  \"routing_policy\": {},\n",
            json_str(self.routing_policy)
        ));
        match self.routing {
            Some(r) => s.push_str(&format!("  \"routing\": {},\n", json_str(r))),
            None => s.push_str("  \"routing\": null,\n"),
        }
        match &self.pattern {
            Some(p) => s.push_str(&format!("  \"pattern\": {},\n", json_str(p))),
            None => s.push_str("  \"pattern\": null,\n"),
        }
        match self.load {
            Some(l) => s.push_str(&format!("  \"load\": {},\n", json_f64(l))),
            None => s.push_str("  \"load\": null,\n"),
        }
        match &self.sim {
            Some(c) => s.push_str(&format!(
                "  \"sim\": {{\"packet_flits\": {}, \"vcs\": {}, \"buf_flits_per_port\": {}, \
                 \"link_latency\": {}, \"warmup_cycles\": {}, \"measure_cycles\": {}, \
                 \"drain_cycles\": {}, \"seed\": {}}},\n",
                c.packet_flits,
                c.vcs,
                c.buf_flits_per_port,
                c.link_latency,
                c.warmup_cycles,
                c.measure_cycles,
                c.drain_cycles,
                c.seed
            )),
            None => s.push_str("  \"sim\": null,\n"),
        }
        match &self.metrics {
            Some(m) => {
                // MetricsReport::to_json emits a compact object; indent
                // it one level for readability.
                s.push_str("  \"metrics\": ");
                s.push_str(&m.to_json());
                s.push_str(",\n");
            }
            None => s.push_str("  \"metrics\": null,\n"),
        }
        s.push_str("  \"extra\": {");
        for (i, (k, v)) in self.extra.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("{}: {}", json_str(k), json_f64(*v)));
        }
        s.push_str("}\n");
        s.push('}');
        s
    }

    /// Write `<dir>/<stem>.json`, creating `dir` if needed.
    pub fn write(&self, dir: &Path, stem: &str) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{stem}.json"));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_json().as_bytes())?;
        f.write_all(b"\n")?;
        Ok(path)
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The ledger's `commit` tag (`benchmark/common.sh` spells it the same
/// way): `git rev-parse HEAD` of the checkout this crate was built
/// from, suffixed `-dirty` when the tree is, `"unknown"` outside a
/// checkout. Read once per process.
fn commit() -> &'static str {
    static COMMIT: OnceLock<String> = OnceLock::new();
    COMMIT.get_or_init(|| {
        let git = |args: &[&str]| {
            let mut cmd = Command::new("git");
            cmd.args(["-C", env!("CARGO_MANIFEST_DIR")]).args(args);
            let out = cmd.output().ok()?;
            let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
            out.status.success().then_some(text)
        };
        match git(&["rev-parse", "HEAD"]) {
            None => "unknown".into(),
            Some(head) if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
                format!("{head}-dirty")
            }
            Some(head) => head,
        }
    })
}

/// Sanitize a registry key for use as a filename stem.
pub fn file_stem(key: &str) -> String {
    key.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polarstar_graph::Graph;
    use polarstar_netsim::monitor::MetricsMonitor;
    use polarstar_netsim::routing::{RouteTable, RoutingKind};
    use polarstar_netsim::{Pattern, Simulation};

    #[test]
    fn topology_only_manifest_shape() {
        let spec = NetworkSpec::uniform("k6", Graph::complete(6), 2);
        let m = RunManifest::for_network("K6", &spec);
        let json = m.to_json();
        assert!(json.contains("\"schema_version\": 1"));
        // The ledger's tag block: a 40-hex commit (maybe `-dirty`) in a
        // checkout, and the widths the run had.
        let hex = commit().trim_end_matches("-dirty");
        assert!(
            commit() == "unknown"
                || (hex.len() == 40 && hex.bytes().all(|b| b.is_ascii_hexdigit())),
            "{}",
            commit()
        );
        assert!(json.contains(&format!("\"commit\": \"{}\"", commit())));
        assert!(json.contains(&format!("\"host_cores\": {}", host_cores())));
        assert!(json.contains("\"threads\": "));
        assert!(json.contains("\"engine_threads\": null"));
        assert!(json.contains("\"key\": \"K6\""));
        assert!(json.contains("\"metrics\": null"));
        assert!(json.contains("\"routing_policy\": \"flat-minimal\""));
        assert_eq!(
            json.bytes().filter(|&b| b == b'{').count(),
            json.bytes().filter(|&b| b == b'}').count()
        );
    }

    #[test]
    fn sim_manifest_carries_metrics() {
        let spec = NetworkSpec::uniform("k6", Graph::complete(6), 2);
        let table = RouteTable::for_spec(&spec);
        let cfg = SimConfig {
            warmup_cycles: 200,
            measure_cycles: 500,
            drain_cycles: 4_000,
            seed: 7,
            ..SimConfig::default()
        };
        let mut mon = MetricsMonitor::new(64);
        Simulation::new(&spec, &table, RoutingKind::MinMulti, &Pattern::Uniform)
            .run_monitored(0.3, &cfg, &mut mon);
        let m = RunManifest::for_network("K6", &spec).with_sim(
            "MIN",
            "uniform",
            0.3,
            &cfg,
            mon.report(),
        );
        let json = m.to_json();
        assert!(json.contains("\"load\": 0.3"));
        assert!(json.contains("\"delivered_packets\""));
        assert!(json.contains("\"latency\""));
        assert!(json.contains("\"p99\""));
        assert!(!json.contains("\"metrics\": null"));
    }

    #[test]
    fn extra_scalars_and_file_write() {
        let spec = NetworkSpec::uniform("p2", Graph::complete(2), 1);
        let mut m = RunManifest::for_network("P2", &spec);
        m.push_extra("bisection_ratio", 0.5);
        m.push_extra("bad", f64::NAN);
        let json = m.to_json();
        assert!(json.contains("\"bisection_ratio\": 0.5"));
        assert!(json.contains("\"bad\": null"));
        let dir = std::env::temp_dir().join("polarstar_manifest_test");
        let path = m.write(&dir, &file_stem("P2/odd key")).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back.trim_end(), json);
        std::fs::remove_dir_all(&dir).ok();
    }
}
