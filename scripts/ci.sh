#!/usr/bin/env bash
# The repo's CI gate: formatting, lints (warnings are errors), and the
# full test suite. Run before sending a PR; run_all_experiments.sh calls
# it first so experiment artifacts always come from a clean tree.
#
# MESHLAYER_CI_SKIP_TESTS=1 skips the test step (lint-only quick pass).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== benchmark: compile check =="
# benchmark/ is a workspace of its own, so clippy above never compiles
# it: check it here, so that even a lint-only pass sees a public item
# the benchmark imports going away. Its tests and a short run come last.
cargo check --offline --all-targets --manifest-path benchmark/Cargo.toml

if [[ "${MESHLAYER_CI_SKIP_TESTS:-0}" != "1" ]]; then
  echo "== cargo test =="
  # MESHLAYER_SECS caps the reproduction suite's per-scenario run
  # lengths (tests/reproduction.rs honors it); 6 is the shortest length
  # at which every directional margin still holds and cuts the suite's
  # wall clock by ~25%.
  MESHLAYER_SECS=6 cargo test --offline --workspace -q

  echo "== flight recorder: record/replay divergence smoke =="
  # Record a short canonical run, replay it in a second process, and
  # require a clean zero-divergence report — the executable form of the
  # determinism guarantee in DESIGN.md §6/§7.
  flight_out="$(mktemp -d)"
  trap 'rm -rf "$flight_out"' EXIT
  MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=3 MESHLAYER_WARMUP=1 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- fig4_latency --record
  replay_log="$(MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=3 MESHLAYER_WARMUP=1 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- fig4_latency --replay)"
  echo "$replay_log"
  if ! grep -q "0 divergences" <<<"$replay_log"; then
    echo "ci: replay of the fig4 capture diverged" >&2
    exit 1
  fi

  echo "== policy plane: closed-loop adaptation smoke =="
  # A short A6 run at congesting load: the SLO burn alert must fire and
  # the policy plane must converge a mid-run transition. Guards the
  # telemetry -> adaptation -> push/ack loop end to end.
  a6_log="$(MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=6 MESHLAYER_WARMUP=1 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- a6_adaptation 80)"
  echo "$a6_log"
  if ! grep -q "policy transition: v2" <<<"$a6_log"; then
    echo "ci: A6 observed no policy transition (adaptation loop broken)" >&2
    exit 1
  fi
  if ! grep -Eq "policy transition: v2 .*converged=[0-9]" <<<"$a6_log"; then
    echo "ci: A6 policy transition never converged" >&2
    exit 1
  fi

  echo "== policy plane: every layer's install and reset, record/replay =="
  # The A6 capture starts at baseline, pushes every optimization when a
  # 1 ms SLO burns, then rolls back to v1: the replay walks the install
  # and the reset path of every layer (routes, compute, transport, host
  # TC, fabric priority). The capture is ~230 MB at 3 s.
  MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=3 MESHLAYER_WARMUP=1 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- a6_adaptation --record
  a6_replay="$(MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=3 MESHLAYER_WARMUP=1 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- a6_adaptation --replay)"
  echo "$a6_replay"
  rm -f "$flight_out/a6_adaptation.flight"
  if ! grep -q "0 divergences" <<<"$a6_replay"; then
    echo "ci: replay of the adaptive capture diverged" >&2
    exit 1
  fi

  echo "== incident timeline: A6 causal-chain smoke (deterministic) =="
  # `experiment incident` drives the same closed loop with a flight capture
  # attached and joins burn alerts, the controller decision, the policy
  # push, per-layer acks and the recovery anomaly into one ordered
  # timeline. The full causal chain must reconstruct, and the report must
  # be byte-identical across runs (it is a pure function of the
  # deterministic run). The capture is ~1 GiB at this load; delete it
  # between runs.
  incident_a="$(MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=4 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- incident 80)"
  echo "$incident_a"
  rm -f "$flight_out/incident.flight"
  if ! grep -q "causal chain: burn-alert -> controller-decision -> policy-push -> acks([1-9][0-9]*) -> recovery \[complete\]" <<<"$incident_a"; then
    echo "ci: incident timeline did not reconstruct the full causal chain" >&2
    exit 1
  fi
  incident_b="$(MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=4 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- incident 80)"
  rm -f "$flight_out/incident.flight"
  if [[ "$incident_a" != "$incident_b" ]]; then
    echo "ci: incident timeline is not deterministic across identical runs" >&2
    diff <(echo "$incident_a") <(echo "$incident_b") >&2 || true
    exit 1
  fi

  echo "== chaos plane: all-fault-kinds record/replay + fault-rooted chain =="
  # The canonical chaos capture schedules every fault kind (crash+restart,
  # gray failure, link flap, rollback, partition) in one short run.
  # Faults are engine events, so the determinism bar is unchanged:
  # record, replay, zero divergence.
  MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=3 MESHLAYER_WARMUP=1 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- a7_chaos --record
  chaos_replay="$(MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=3 MESHLAYER_WARMUP=1 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- a7_chaos --replay)"
  echo "$chaos_replay"
  rm -f "$flight_out/a7_chaos.flight"
  if ! grep -q "0 divergences" <<<"$chaos_replay"; then
    echo "ci: replay of the chaos capture diverged" >&2
    exit 1
  fi
  # `experiment chaos` is the incident loop plus injected faults: the causal
  # chain must now *begin at the injected fault*, and the report must
  # stay byte-identical across runs like the fault-free one above.
  chaos_a="$(MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=4 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- chaos 80)"
  echo "$chaos_a"
  rm -f "$flight_out/chaos.flight"
  if ! grep -q "causal chain: fault-inject([1-9][0-9]*) ->" <<<"$chaos_a"; then
    echo "ci: chaos incident chain does not begin at the injected fault" >&2
    exit 1
  fi
  chaos_b="$(MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=4 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- chaos 80)"
  rm -f "$flight_out/chaos.flight"
  if [[ "$chaos_a" != "$chaos_b" ]]; then
    echo "ci: chaos incident run is not deterministic across identical runs" >&2
    diff <(echo "$chaos_a") <(echo "$chaos_b") >&2 || true
    exit 1
  fi

  echo "== telemetry plane: fleet-scale memory ceiling =="
  # ~1000 classes + pods + gauges driven through the hub for thousands
  # of scrapes: the retention pyramid must hold the footprint under a
  # fixed ceiling however long the run (O(classes × sketch size), not
  # O(run length)). 4000 scrapes ≈ 6.7 simulated minutes — past every
  # retention tier's steady state — at a quarter of the default ceiling,
  # so even a slow leak fails fast.
  cargo run --offline --release -q -p meshlayer-bench --bin experiment -- telemetry_mem \
    --scrapes 4000 --ceiling-mib 32

  echo "== topology scale: generated-fabric smoke (sweep + record/replay) =="
  # A generated ~200-pod zonal spine-leaf fabric, MESHLAYER_SECS-capped,
  # in a DEBUG build on purpose: the arena/SoA pod state and the
  # hierarchical O(nodes+links) routing must keep even an unoptimized
  # binary inside a committed memory ceiling (DESIGN.md §13). The run
  # measures about 100 MiB; before the queue was slimmed (ISSUE 21) it
  # measured 122, so 160 is low enough to see that come back. Then the
  # same fabric is held to the flight-recorder bar: record, replay,
  # zero divergence.
  MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=2 MESHLAYER_WARMUP=1 \
    cargo run --offline -q -p meshlayer-bench --bin experiment -- topo_smoke \
    --pods 200 --rps 2000 --rss-ceiling-mib 160
  MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=2 MESHLAYER_WARMUP=1 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- topo_smoke --record
  topo_replay="$(MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=2 MESHLAYER_WARMUP=1 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- topo_smoke --replay)"
  echo "$topo_replay"
  rm -f "$flight_out/topo_smoke.flight"
  if ! grep -q "0 divergences" <<<"$topo_replay"; then
    echo "ci: replay of the generated-fabric capture diverged" >&2
    exit 1
  fi

  echo "== fluid plane: links view determinism (run-twice diff) =="
  # The per-link packet-vs-fluid utilization table is a pure function of
  # the deterministic run (every column comes from simulation counters);
  # two identical invocations must produce byte-identical stdout.
  links_a="$(MESHLAYER_SECS=2 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- links 20000)"
  echo "$links_a"
  links_b="$(MESHLAYER_SECS=2 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- links 20000)"
  if [[ "$links_a" != "$links_b" ]]; then
    echo "ci: links view output is not deterministic across identical runs" >&2
    diff <(echo "$links_a") <(echo "$links_b") >&2 || true
    exit 1
  fi
  if ! grep -q "fluid class" <<<"$links_a"; then
    echo "ci: links view reported no fluid classes" >&2
    exit 1
  fi

  echo "== benchmark: the pipeline's ledger builds and runs =="
  # benchmark/ is a workspace of its own, so nothing above compiles it:
  # a crate API change could break the pipeline's benchmark unseen. Run
  # its unit tests, then one short pass of every workload with its
  # output checks (ok_share, 0 divergences, sample counts). Only the
  # exit codes count here; host-time values are compared by the
  # pipeline's parent-vs-change runs, not against anything committed.
  cargo test --offline -q --manifest-path benchmark/Cargo.toml
  benchmark/run.sh --seconds 4

  echo "== engine observatory: profiled smoke + trace validation =="
  # A profiled fig4 smoke must emit a Chrome trace-event file that
  # parses, is non-empty, and has only complete spans (DESIGN.md §10);
  # meshctl validate-trace is the checker users run by hand.
  MESHLAYER_OUT="$flight_out" MESHLAYER_SECS=2 MESHLAYER_WARMUP=1 \
    cargo run --offline --release -q -p meshlayer-bench --bin experiment -- fig4_latency \
    --profile "$flight_out/ci_trace.json" 20 40
  cargo run --offline --release -q --bin meshctl -- validate-trace "$flight_out/ci_trace.json"
fi

echo "ci: all checks passed"
