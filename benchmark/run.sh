#!/usr/bin/env bash
# The benchmark's one command. Run it from anywhere; it works from the
# root of the checkout it lives in and builds what it runs from source.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
#       every workload: the untraced runs (end-to-end metrics), then one
#       traced pass each (per-layer metrics); results in benchmark/out/
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, one kind of run: the form BENCHMARK.json names
#   benchmark/run.sh compare A.json B.json
#       judge results file B against A by the bounds
#
# The last line of standard output is the JSON object of the (last)
# workload run.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"

build() {
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --bin "$1" >&2
}

trace=both
workload=
prev=
for arg in "$@"; do
    case "$prev" in
        --trace) trace="$arg" ;;
        --workload) workload="$arg" ;;
    esac
    prev="$arg"
done
if [ "${1:-}" = compare ] || [ "$trace" = 0 ]; then
    build bench
    exec "$CARGO_TARGET_DIR/release/bench" "$@"
elif [ "$trace" = 1 ]; then
    build bench-trace
    exec "$CARGO_TARGET_DIR/release/bench-trace" "$@"
elif [ -n "$workload" ]; then
    echo "run.sh: --workload needs --trace 0 or --trace 1" >&2
    exit 2
fi
build bench
build bench-trace
"$CARGO_TARGET_DIR/release/bench" "$@"
"$CARGO_TARGET_DIR/release/bench-trace" "$@"
