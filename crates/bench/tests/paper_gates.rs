//! The evaluation claims EXPERIMENTS.md marks reproduced, asserted over
//! the committed `results/*.csv` rows. No binary runs: these gates read
//! what the figures were drawn from, so a regenerated CSV that breaks a
//! claim fails here, naming the file, the row and the claim.
//!
//! "Sat" is a curve's last stable offered load (0.0 when no load was
//! stable), as `results/summarize_fig09.py` reads it.

use std::fmt;
use std::path::Path;

/// One data row of a committed CSV, with its line in the file (the
/// header is line 1).
struct Row {
    at: String,
    cells: Vec<(String, String)>,
}

impl Row {
    fn get(&self, col: &str) -> &str {
        self.cells
            .iter()
            .find(|(c, _)| c == col)
            .map(|(_, v)| v.as_str())
            .unwrap_or_else(|| panic!("{}: no column {col}", self.at))
    }

    fn num(&self, col: &str) -> f64 {
        let v = self.get(col);
        v.parse()
            .unwrap_or_else(|e| panic!("{}: {col} = {v:?}: {e}", self.at))
    }

    fn is(&self, key: &[(&str, &str)]) -> bool {
        key.iter().all(|&(c, v)| self.get(c) == v)
    }
}

/// Every data row of `results/<file>`.
fn load(file: &str) -> Vec<Row> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(file);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{file}: {e}"));
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("header").split(',').collect();
    lines
        .enumerate()
        .map(|(i, line)| Row {
            at: format!("results/{file}:{}", i + 2),
            cells: header
                .iter()
                .map(|h| h.to_string())
                .zip(line.split(',').map(String::from))
                .collect(),
        })
        .collect()
}

/// The one row matching every `(column, value)` of `key`.
fn row<'a>(rows: &'a [Row], key: &[(&str, &str)]) -> &'a Row {
    let mut found = rows.iter().filter(|r| r.is(key));
    let r = found
        .next()
        .unwrap_or_else(|| panic!("no row with {key:?}"));
    assert!(
        found.next().is_none(),
        "{}: more than one row with {key:?}",
        r.at
    );
    r
}

/// A number read from a committed row, with where it was read.
struct Read {
    value: f64,
    at: String,
}

impl fmt::Display for Read {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.value, self.at)
    }
}

/// The sat of one (pattern, topology, routing) curve.
fn sat(rows: &[Row], pattern: &str, topology: &str, routing: &str) -> Read {
    let key = [
        ("pattern", pattern),
        ("topology", topology),
        ("routing", routing),
    ];
    let curve: Vec<&Row> = rows.iter().filter(|r| r.is(&key)).collect();
    assert!(!curve.is_empty(), "no {key:?} curve");
    let stable = curve
        .iter()
        .filter(|r| r.get("stable") == "true")
        .max_by(|a, b| a.num("offered").total_cmp(&b.num("offered")));
    match stable {
        Some(r) => Read {
            value: r.num("offered"),
            at: r.at.clone(),
        },
        None => Read {
            value: 0.0,
            at: format!("{}, no stable row", curve[0].at),
        },
    }
}

/// Table 3: router and endpoint counts. The paper lists 993 PS-Pal
/// routers; its own closed form gives 949 for that split (EXPERIMENTS.md,
/// "PS-Pal note").
#[test]
fn table3_router_and_endpoint_counts() {
    let rows = load("table3_configs.csv");
    for (network, routers, endpoints) in [
        ("PS-IQ", "1064", "5320"),
        ("PS-Pal", "949", "4745"),
        ("BF", "882", "4410"),
        ("HX", "648", "5184"),
        ("DF", "876", "5256"),
        ("SF", "1092", "8736"),
        ("MF", "1040", "4160"),
        ("FT", "972", "5832"),
    ] {
        let r = row(&rows, &[("network", network)]);
        assert_eq!(
            r.get("routers"),
            routers,
            "{}: Table 3 {network} routers",
            r.at
        );
        assert_eq!(
            r.get("endpoints"),
            endpoints,
            "{}: Table 3 {network} endpoints",
            r.at
        );
    }
}

/// Fig. 9 uniform MIN: PS-* sustain at least what DF, MF and FT do, and
/// SF and HX sustain more than every other network.
#[test]
fn fig09_uniform_min_ordering() {
    let rows = load("fig09_synthetic.csv");
    let uniform = |t| sat(&rows, "uniform", t, "MIN");
    for ps in ["PS-IQ", "PS-Pal"] {
        for other in ["DF", "MF", "FT"] {
            let (a, b) = (uniform(ps), uniform(other));
            assert!(
                a.value >= b.value,
                "Fig. 9 uniform MIN: {ps} {a} < {other} {b}"
            );
        }
    }
    for top in ["SF", "HX"] {
        for other in ["PS-IQ", "PS-Pal", "BF", "DF", "MF", "FT"] {
            let (a, b) = (uniform(top), uniform(other));
            assert!(
                a.value > b.value,
                "Fig. 9 uniform MIN: {top} {a} ≤ {other} {b}"
            );
        }
    }
}

/// Fig. 9 bit-shuffle and Fig. 10 adversarial under MIN: DF and MF, one
/// link per group pair, deliver no stable point.
#[test]
fn df_and_mf_collapse_under_min_on_pinned_patterns() {
    for (file, pattern) in [
        ("fig09_synthetic.csv", "bitshuffle"),
        ("fig10_adversarial.csv", "adversarial"),
    ] {
        let rows = load(file);
        for t in ["DF", "MF"] {
            let s = sat(&rows, pattern, t, "MIN");
            assert_eq!(s.value, 0.0, "{pattern} MIN: {t} sat {s}, want a collapse");
        }
    }
}

/// Fig. 10: PS-IQ sustains at least PS-Pal's adversarial load under UGAL.
#[test]
fn fig10_ps_iq_ugal_at_least_ps_pal() {
    let rows = load("fig10_adversarial.csv");
    let (iq, pal) = (
        sat(&rows, "adversarial", "PS-IQ", "UGAL"),
        sat(&rows, "adversarial", "PS-Pal", "UGAL"),
    );
    assert!(
        iq.value >= pal.value,
        "Fig. 10 UGAL: PS-IQ {iq} < PS-Pal {pal}"
    );
}

/// Fig. 9: UGAL sustains more than MIN on bit-shuffle and permutation
/// for PS-IQ, DF and HX.
#[test]
fn fig09_ugal_above_min_on_pinned_patterns() {
    let rows = load("fig09_synthetic.csv");
    for pattern in ["bitshuffle", "permutation"] {
        for t in ["PS-IQ", "DF", "HX"] {
            let (ugal, min) = (
                sat(&rows, pattern, t, "UGAL"),
                sat(&rows, pattern, t, "MIN"),
            );
            assert!(
                ugal.value > min.value,
                "{pattern} {t}: UGAL {ugal} ≤ MIN {min}"
            );
        }
    }
}

/// Fig. 11: allreduce is fastest on FT under both routings, and UGAL at
/// least halves MIN's allreduce time on PS-IQ, DF and HX.
#[test]
fn fig11_allreduce_claims() {
    let rows = load("fig11_motifs.csv");
    let time = |t: &str, routing: &str| {
        let r = row(
            &rows,
            &[
                ("motif", "allreduce"),
                ("topology", t),
                ("routing", routing),
            ],
        );
        Read {
            value: r.num("time_us"),
            at: r.at.clone(),
        }
    };
    for routing in ["MIN", "UGAL"] {
        let ft = time("FT", routing);
        for t in ["PS-IQ", "DF", "HX"] {
            let other = time(t, routing);
            assert!(
                ft.value < other.value,
                "Fig. 11 {routing}: FT {ft} ≥ {t} {other}"
            );
        }
    }
    for t in ["PS-IQ", "DF", "HX"] {
        let (ugal, min) = (time(t, "UGAL"), time(t, "MIN"));
        assert!(
            2.0 * ugal.value <= min.value,
            "Fig. 11 {t}: UGAL {ugal} vs MIN {min}"
        );
    }
}

/// Fig. 14: the disconnection ratio (the first failed fraction that
/// disconnects the network) orders MF < PS-IQ = BF < DF < HX = SF. FT is
/// not gated: its leaf-to-leaf metric keeps it connected to 0.75, where
/// the paper puts it below the direct networks (EXPERIMENTS.md, Fig. 14
/// deviation).
#[test]
fn fig14_disconnection_ordering() {
    let rows = load("fig14_fault_tolerance.csv");
    let ratio = |t: &str| {
        let r = rows
            .iter()
            .filter(|r| r.get("topology") == t && r.get("connected") == "false")
            .min_by(|a, b| {
                a.num("failed_fraction")
                    .total_cmp(&b.num("failed_fraction"))
            })
            .unwrap_or_else(|| panic!("Fig. 14: {t} never disconnects"));
        Read {
            value: r.num("failed_fraction"),
            at: r.at.clone(),
        }
    };
    for (a, op, b) in [
        ("MF", '<', "PS-IQ"),
        ("PS-IQ", '=', "BF"),
        ("BF", '<', "DF"),
        ("DF", '<', "HX"),
        ("HX", '=', "SF"),
    ] {
        let (ra, rb) = (ratio(a), ratio(b));
        let holds = match op {
            '<' => ra.value < rb.value,
            _ => ra.value == rb.value,
        };
        assert!(holds, "Fig. 14 disconnection: want {a} {ra} {op} {b} {rb}");
    }
}

/// `ablation_channel_load`: imbalance orders SF = FT < HX < BF < PS-IQ <
/// PS-Pal < DF < MF, and over the seven direct networks Fig. 9's uniform
/// MIN sat never rises as imbalance rises. FT is left out of the second
/// claim: its channels are balanced, yet it is stable only to 0.6.
#[test]
fn channel_imbalance_orders_uniform_min() {
    let loads = load("ablation_channel_load.csv");
    let imbalance = |t: &str| {
        let r = row(&loads, &[("topology", t)]);
        Read {
            value: r.num("imbalance"),
            at: r.at.clone(),
        }
    };
    let order = ["SF", "FT", "HX", "BF", "PS-IQ", "PS-Pal", "DF", "MF"];
    for w in order.windows(2) {
        let (a, b) = (imbalance(w[0]), imbalance(w[1]));
        let holds = if w == ["SF", "FT"] {
            a.value == b.value
        } else {
            a.value < b.value
        };
        assert!(holds, "channel imbalance: {} {a} vs {} {b}", w[0], w[1]);
    }
    let fig09 = load("fig09_synthetic.csv");
    let direct: Vec<&str> = order.into_iter().filter(|&t| t != "FT").collect();
    for w in direct.windows(2) {
        let (a, b) = (
            sat(&fig09, "uniform", w[0], "MIN"),
            sat(&fig09, "uniform", w[1], "MIN"),
        );
        assert!(
            a.value >= b.value,
            "uniform MIN sat rises with imbalance: {} {a} < {} {b}",
            w[0],
            w[1]
        );
    }
}
