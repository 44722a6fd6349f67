#!/usr/bin/env bash
# A/A: runs every workload twice on the same code with different seeds and
# prints, for every (workload, end-to-end metric), both medians, their
# relative difference and the metric's bound.  Exits non-zero if a
# difference exceeds its bound.
#
#   perf/aa.sh [SEED_A SEED_B]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seeds=("${1:-101}" "${2:-202}")
out="$here/out"
mkdir -p "$out"
for seed in "${seeds[@]}"; do
    : >"$out/aa-$seed.tsv"
    for workload in uncontended handoff oversub_mutex oversub_rw; do
        result="$("$here/run.sh" --workload "$workload" --seed "$seed" --trace 0 | tail -n 1)"
        printf '%s\t%s\n' "$workload" "$result" >>"$out/aa-$seed.tsv"
    done
done
"$here/run.sh" --compare "$out/aa-${seeds[0]}.tsv" "$out/aa-${seeds[1]}.tsv"
