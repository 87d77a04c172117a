#!/usr/bin/env bash
# Interleaved A/B of two prebuilt perfbench binaries.
#
#   perfbench/ab.sh BIN_A BIN_B [PAIRS=10]
#
# Build each commit once into its own target directory and copy the
# binaries out (see README.md, "Comparing two commits"). For every workload
# in BENCHMARK.json this runs PAIRS pairs, both sides of a pair on the same
# seed, switching which side goes first each pair, then prints per
# workload x end-to-end metric each side's median and quartiles, the pairs
# each side won, and whether B meets the gain rule (ten pairs or more, B
# wins at least nine tenths of them, and its median is better than A's by
# more than A's interquartile range). Run length comes from BENCHMARK.json.
set -euo pipefail

if [ $# -lt 2 ]; then
    sed -n '2,13p' "$0" >&2
    exit 2
fi
bin_a=$(realpath "$1")
bin_b=$(realpath "$2")
pairs=${3:-10}

cd "$(dirname "$0")/.."
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n 's/.*{"name": "\([A-Za-z0-9_.-]*\)", "why".*/\1/p' BENCHMARK.json)
out=perfbench/out/ab
rm -rf "$out"
mkdir -p "$out"

run() { # side binary workload seed
    "$2" --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 | tail -n 1 >>"$out/$3.$1.jsonl"
}

for w in $workloads; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((1000 + i))
        if ((i % 2 == 0)); then
            run A "$bin_a" "$w" "$seed"
            run B "$bin_b" "$w" "$seed"
        else
            run B "$bin_b" "$w" "$seed"
            run A "$bin_a" "$w" "$seed"
        fi
        echo "ab: $w pair $((i + 1))/$pairs done" >&2
    done
done

"$bin_a" --compare "$out"
