#!/bin/bash
# Regenerate every paper table/figure into results/.
set -u
cd "$(dirname "$0")"
B=target/release
cargo build --release -p bench || exit 1
run() {
  name=$1; shift
  echo "=== $name start $(date +%H:%M:%S)" >> results/run.log
  "$B/$name" "$@" > "results/$name.csv" 2> "results/$name.log"
  echo "=== $name done  $(date +%H:%M:%S) rc=$?" >> results/run.log
}
run table1_properties
run table2_supernodes
run table3_configs
run fig04_diameter2_families
run fig07_design_space
run fig08_layout
run fig01_moore_efficiency
run fig11_motifs
run fig14_fault_tolerance
run fig13_ps_bisection
run fig10_adversarial
run fig09_synthetic
run fig12_bisection
run ablation_supernodes
run ablation_channel_load
run fault_sweep
run fault_recovery
run edst_sweep --metrics-dir metrics/
run negotiate_sweep --metrics-dir metrics/
run flow_sweep --metrics-dir metrics/
echo ALL_DONE >> results/run.log
