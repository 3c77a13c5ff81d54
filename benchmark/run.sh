#!/usr/bin/env bash
# Build meshbench and run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of stdout is the result
#       object (correct, attempted, failed, metrics)
#   benchmark/run.sh [--seed N] [--seconds S] [--trace 0|1] [--check-repeat]
#       every workload, each in a process of its own; with --check-repeat
#       each runs twice and the two results are compared
#
# Builds offline into $CARGO_TARGET_DIR, by default the repository's
# target/ directory. Everything a run writes goes to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
# Keep glibc from trimming the heap top. With trimming, a rebuild of a small
# world either faults its whole heap back in or does not, depending on what
# sits at the top of the heap when the previous one is dropped: set-up time
# flips between two modes 20 % apart, for seconds at a time, and run time
# drifts by 2-6 %. Same setting for every commit measured.
export MALLOC_TRIM_THRESHOLD_="${MALLOC_TRIM_THRESHOLD_:-1099511627776}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/meshbench" "$@"
