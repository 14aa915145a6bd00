#!/bin/sh
# Appends one line per BENCHMARK.json workload to results/trajectory.jsonl:
# the commit, Go version, GOMAXPROCS and CPU model the benchmark printed
# on its `host:` line, and the run's last line (the gated result object)
# verbatim. One untraced run per workload at seed 1 for BENCHMARK.json's
# run_seconds, so lines are comparable down the file; a tree with
# uncommitted changes is recorded as <commit>+dirty. About two minutes.
#   scripts/bench_record.sh
set -eu
cd "$(dirname "$0")/.."

dirty=""
git diff --quiet HEAD 2>/dev/null || dirty="+dirty"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
mkdir -p results
for w in $(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' BENCHMARK.json); do
    echo "bench_record.sh: $w" >&2
    out=$(bash benchmark/run.sh --workload "$w" --seed 1 --seconds "$seconds" --trace 0)
    host=$(printf '%s\n' "$out" | sed -n \
        's/^host: commit=\([^ ]*\) go=\([^ ]*\) GOMAXPROCS=\([0-9]*\) .* cpu=\("[^"]*"\).*/"commit":"\1'"$dirty"'","go":"\2","gomaxprocs":\3,"cpu":\4/p')
    result=$(printf '%s\n' "$out" | tail -n 1)
    if [ -z "$host" ] || [ "${result#\{}" = "$result" ]; then
        echo "bench_record.sh: $w: no host line or result object in the benchmark's output" >&2
        exit 1
    fi
    printf '{"workload":"%s",%s,"result":%s}\n' "$w" "$host" "$result" >> results/trajectory.jsonl
done
