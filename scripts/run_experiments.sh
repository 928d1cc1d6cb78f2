#!/usr/bin/env bash
# Regenerates experiments E1..E20 in release mode, saving outputs
# under results/. Fails if any experiment's verdict assertion trips.
# e19_chaos also rewrites BENCH_chaos.json (its default --out); the file
# holds counts only, so a healthy run leaves it byte-identical.
set -euo pipefail
cd "$(dirname "$0")/.." || exit 1
mkdir -p results
experiments=(
  e1_worked_example e2_strategyproofness e3_bgp_convergence
  e4_price_convergence e5_state_overhead e6_communication
  e7_dprime_vs_d e8_overcharging e9_baseline_comparison e10_dynamics
  e11_ablation_full_table e12_neighbor_costs e13_audit e14_scale
  e15_per_node_convergence e16_topology_realism e17_uniqueness
  e18_overcharge_vs_diversity e19_chaos e20_adversary
)
# Build everything up front, then verify each expected binary actually
# exists: a typo'd experiment name fails here in seconds instead of
# mid-run after the earlier experiments have already been regenerated.
cargo build --quiet --release -p bgpvcg-bench --bins
target_dir="${CARGO_TARGET_DIR:-target}/release"
missing=0
for e in "${experiments[@]}"; do
  if [[ ! -x "$target_dir/$e" ]]; then
    echo "error: experiment binary '$e' not found in $target_dir" >&2
    missing=1
  fi
done
if [[ "$missing" -ne 0 ]]; then
  echo "aborting: missing experiment binaries (names drifted from crates/bench/src/bin/?)" >&2
  exit 1
fi

for e in "${experiments[@]}"; do
  echo "== $e =="
  "$target_dir/$e" | tee "results/$e.txt"
done
echo "All ${#experiments[@]} experiments passed."
