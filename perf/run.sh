#!/usr/bin/env bash
# Builds lc-perf and runs it.
#
#   perf/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of standard output is the result object
#       (the form BENCHMARK.json's command is called in)
#   perf/run.sh [--seed N] [--seconds S]
#       the whole suite: every workload untraced, then every workload traced;
#       rewrites BENCHMARK.json from the tables in src/metrics.rs and saves
#       the result lines to perf/out/suite-<seed>.tsv
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml
bin="$CARGO_TARGET_DIR/release/lc-perf"

PERF_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
PERF_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERF_RUSTC PERF_COMMIT PERF_OUT_DIR="$root/perf/out"

case "${1:-}" in
--workload | --compare | --benchmark-json) exec "$bin" "$@" ;;
esac

seed=1
seconds=24
while [ $# -gt 0 ]; do
    case "$1" in
    --seed) seed="$2" ;;
    --seconds) seconds="$2" ;;
    *)
        echo "run.sh: unknown argument $1" >&2
        exit 2
        ;;
    esac
    shift 2
done

"$bin" --benchmark-json >BENCHMARK.json
mkdir -p "$PERF_OUT_DIR"
results="$PERF_OUT_DIR/suite-$seed.tsv"
: >"$results"
for trace in 0 1; do
    for workload in uncontended handoff oversub_mutex oversub_rw; do
        log="$PERF_OUT_DIR/$workload-trace$trace-$seed.log"
        "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tee "$log"
        printf '%s\t%s\n' "$workload" "$(tail -n 1 "$log")" >>"$results"
        echo
    done
done
echo "result lines: $results"
