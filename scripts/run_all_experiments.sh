#!/usr/bin/env bash
# Regenerate every figure/table of EXPERIMENTS.md at full length: eleven
# entries of the experiment table, each run as `experiment <name>` with
# its stdout kept in results/<name>.txt (Fig 4 adds its JSON rows).
#
# Entries also write telemetry artifacts with stable names into
# results/: <name>_telemetry.json, _latency.csv, _gauges.csv,
# _rollup.csv, _anomalies.csv, _metrics.prom and, when the run kept
# provenance, _provenance.{csv,json}, for name in {fig4, a1..a6}; plus
# fig4_spans.json (Zipkin-style span dump for the representative Fig 4
# run) and a7_incident.flight (the capture behind A7.4's timeline).
#
# Each entry runs its arms concurrently, one per host thread. Full
# length takes tens of minutes; export MESHLAYER_SECS=10 for a quick
# pass. MESHLAYER_SKIP_CI=1 skips the lint/test gate.
set -euo pipefail
cd "$(dirname "$0")/.."

SECS="${MESHLAYER_SECS:-60}"
WARM="${MESHLAYER_WARMUP:-8}"
OUT=results
mkdir -p "$OUT"

if [[ "${MESHLAYER_SKIP_CI:-0}" != "1" ]]; then
  ./scripts/ci.sh
fi

cargo build --release -p meshlayer-bench

# secs EXPR: EXPR seconds, but never under 2: a shorter run has no
# measurement window between warm-up and cooldown, and is refused.
secs() { local s=$(($1)); echo $((s < 2 ? 2 : s)); }

# experiment NAME [POINTS...]: one table entry at $MESHLAYER_SECS.
experiment() {
  echo "== $1 =="
  MESHLAYER_WARMUP="$WARM" ./target/release/experiment "$@" | tee "$OUT/$1.txt"
}

MESHLAYER_SECS=$(secs SECS) experiment fig2_stack
MESHLAYER_SECS=$(secs SECS) experiment fig3_topology
MESHLAYER_SECS=$(secs SECS) experiment fig4_latency
MESHLAYER_SECS=$(secs SECS/4+1) experiment t2_overhead
MESHLAYER_SECS=$(secs SECS) experiment a1_ablation 30
MESHLAYER_SECS=$(secs SECS) experiment a2_scavenger 40
MESHLAYER_SECS=$(secs SECS/3+1) experiment a3_lb_tail
MESHLAYER_SECS=$(secs SECS/3+1) experiment a4_hedging
MESHLAYER_SECS=$(secs SECS/4+1) experiment a5_sdn
MESHLAYER_SECS=$(secs SECS/3+1) experiment a6_adaptation
MESHLAYER_SECS=$(secs SECS/2) experiment a7_chaos

echo
echo "all outputs in $OUT/"
