#!/usr/bin/env bash
# A/A check: two sets of runs of the same commit, interleaved (A B A B …)
# so that drift in the machine lands on both. Prints, per workload and
# end-to-end metric, both medians, spreads, their difference and the
# bound from BENCHMARK.json; exits non-zero if any metric disagrees
# beyond its bound. Every other number the runs measured is printed the
# same way, not judged. The bounds in BENCHMARK.json, and the README's
# list of timings that could not be gated, were set from this script's
# output.
#
#   benchmark/aa.sh [runs-per-set (default 5)] [trace (default 0)]
set -euo pipefail

runs=${1:-5}
trace=${2:-0}
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
cd "$root"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads="build serve_point serve_batch living_mixed"

out=$root/.bench_build/aa
rm -rf "$out" && mkdir -p "$out"
seed=0
for i in $(seq "$runs"); do
	for set in A B; do
		for w in $workloads; do
			seed=$((seed + 1))
			# The "full:" line is the result line plus what else the run measured.
			line=$(benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | sed -n 's/^full: //p')
			printf '%s\t%s\n' "$w" "$line" >>"$out/$set.tsv"
			echo "set $set run $i $w seed $seed done" >&2
		done
	done
done
exec "$root/.bench_build/bin/parapll-benchmark" -compare BENCHMARK.json "$out/A.tsv" "$out/B.tsv"
