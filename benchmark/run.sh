#!/usr/bin/env bash
# Builds the commit's own binaries and the benchmark, then runs one
# workload:   benchmark/run.sh --workload build --seed 1 --seconds 12 --trace 0
# or all four at smoke scale in a few seconds:   benchmark/run.sh -smoke
#
# Everything it writes stays under .bench_build/ in the checkout,
# including Go's build cache, so the first run in a fresh checkout
# compiles from scratch and later runs only relink what changed.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
cd "$root"
if [ ! -f go.mod ] || [ ! -d cmd/parapll-server ]; then
	echo "benchmark/run.sh: $root is not a parapll checkout (no go.mod or cmd/parapll-server); nothing to measure" >&2
	exit 3
fi

out=$root/.bench_build
mkdir -p "$out/bin"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o "$out/bin/" ./cmd/parapll-gen ./cmd/parapll-index ./cmd/parapll-server ./cmd/parapll-trace
go build -o "$out/bin/parapll-benchmark" ./benchmark

if [ "${1:-}" = "-smoke" ] || [ "${1:-}" = "--smoke" ]; then
	for w in build serve_point serve_batch living_mixed; do
		"$out/bin/parapll-benchmark" -smoke -workload "$w" -seed 1 -seconds 1 -bin "$out/bin" | tail -n 1
	done
	exit 0
fi
exec "$out/bin/parapll-benchmark" -bin "$out/bin" "$@"
