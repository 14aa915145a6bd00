#!/bin/sh
# Repo-wide checks: the tier-1 command (build + full tests) plus gofmt,
# static vetting (go vet and the custom parapll-vet suite), a race-detector
# pass over the short suite, a fuzz smoke on the wire decoders, and a
# cross-compile sweep. Run before every PR:
#   scripts/check.sh
set -eu
cd "$(dirname "$0")/.."

# Fail loudly, not with a cryptic "not found" mid-run, when the
# toolchain is missing from PATH.
if ! command -v go >/dev/null 2>&1; then
    echo "check.sh: FATAL: 'go' not found in PATH; install Go or add it to PATH" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== gofmt -l . (any file listed is unformatted)"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    printf '%s\n' "$unformatted" >&2
    echo "check.sh: the files above need gofmt -w" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== parapll-vet ./... (custom analyzers)"
if [ "${GITHUB_ACTIONS:-}" = "true" ]; then
    # On CI, emit findings both as plain log lines and as GitHub
    # annotations (::error), so they surface inline on the PR diff. The
    # NDJSON field order is fixed by cmd/parapll-vet, which lets sed do
    # the rewrite without a JSON parser on the runner.
    vet_status=0
    vet_out=$(go run ./cmd/parapll-vet -json ./...) || vet_status=$?
    if [ -n "$vet_out" ]; then
        printf '%s\n' "$vet_out"
        printf '%s\n' "$vet_out" | sed -E \
            -e "s|\"file\":\"$(pwd)/|\"file\":\"|" \
            -e 's/^\{"file":"([^"]*)","line":([0-9]+),"col":([0-9]+),"analyzer":"([^"]*)","message":"(.*)"\}$/::error file=\1,line=\2::[\4] \5/'
    fi
    [ "$vet_status" -eq 0 ]
else
    go run ./cmd/parapll-vet ./...
fi

echo "== go test -race -short ./..."
go test -race -short ./...

# The two lock-free structures whose ordering bugs need an interleaving
# an instruction wide (a lapped trace-ring writer, a label list regrown
# between a reader's two loads), and the batch kernel's pooled scratch
# under concurrent QueryBatch calls: one pass rarely hits it, twenty do.
echo "== go test -race -count=20 (trace ring, label store, batch scratch pool)"
go test -race -count=20 -run 'TestConcurrentEmitters|TestStore|TestQueryBatchConcurrent' ./internal/trace ./internal/label

echo "== go test ./... (tier-1)"
go test ./...

# Fuzz smoke: a few seconds on each wire decoder keeps the targets
# compiling and catches shallow regressions; long runs stay manual
# (go test -fuzz=... -fuzztime=10m ./internal/...).
FUZZTIME="${FUZZTIME:-5s}"
echo "== fuzz smoke (${FUZZTIME} per target)"
go test -fuzz=FuzzDecodeFrame -fuzztime="$FUZZTIME" -run '^$' ./internal/cluster/
go test -fuzz=FuzzOpenPIDM -fuzztime="$FUZZTIME" -run '^$' ./internal/label/
go test -fuzz=FuzzWALReplay -fuzztime="$FUZZTIME" -run '^$' ./internal/wal/
go test -fuzz=FuzzBatchDecode -fuzztime="$FUZZTIME" -run '^$' ./internal/server/

# Crash-recovery smoke: the living-graph durability contract end to
# end through the real binary — serve with -wal, acknowledge updates,
# kill -9, restart, verify every probed distance against a from-scratch
# Dijkstra (tier-1 runs it too; this names it so a red run points here).
echo "== crash-recovery e2e (serve -> update -> kill -9 -> replay -> compact)"
go test -run TestCrashRecoveryE2E -count=1 .

# Flight-recorder smoke: the diagnostics loop end to end through the
# real binaries — serve with -flight and a 1us query-p99 SLO, drive
# traffic until the watchdog breaches, and require the auto-captured
# bundle to pass `parapll-trace check`. With PARAPLL_E2E_ARTIFACTS set
# (CI sets it), the spool lands there so a red run's bundles survive as
# build artifacts.
echo "== flight-recorder e2e (serve -> forced SLO breach -> bundle -> parapll-trace check)"
go test -run TestFlightBreachE2E -count=1 .

# Cross-compile smoke: the mmap open path is split by build tags
# (//go:build unix vs the pure-read fallback), so compile the tree for a
# non-linux unix, for windows (the fallback) and for another
# architecture to catch tag or unsafe-arithmetic breakage early. Every
# target is attempted; any failure fails the script at the end, with a
# per-target status line instead of stopping at the first.
echo "== cross-compile smoke (darwin/arm64, windows/amd64, linux/arm64)"
cross_failed=0
for target in darwin/arm64 windows/amd64 linux/arm64; do
    os=${target%/*}
    arch=${target#*/}
    pkgs=./...
    if [ "$os" = windows ]; then
        # The repository benchmark drives real processes through unix
        # process groups, signals and rusage; it has no windows build.
        pkgs=$(go list ./... | grep -v '^parapll/benchmark$')
    fi
    # shellcheck disable=SC2086 # pkgs is a word list
    if GOOS="$os" GOARCH="$arch" go build $pkgs ; then
        echo "   $target: ok"
    else
        echo "   $target: FAILED" >&2
        cross_failed=1
    fi
done
if [ "$cross_failed" -ne 0 ]; then
    echo "check.sh: cross-compile smoke failed (see targets above)" >&2
    exit 1
fi

# Trace smoke: index a tiny graph with -trace and validate the emitted
# Chrome trace-event JSON end to end (well-formed, nonzero spans).
echo "== trace smoke (parapll-index -trace -> parapll-trace check)"
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/parapll-gen -dataset Wiki-Vote -scale 0.02 -out "$tracedir"
go run ./cmd/parapll-index -graph "$tracedir/wiki-vote.bin" -out "$tracedir/g.idx" \
    -threads 4 -trace "$tracedir/build.json"
go run ./cmd/parapll-trace check "$tracedir/build.json"

# Opt-in: sync-pipeline benchmark (writes BENCH_sync.json). Slowish, so
# off by default; enable with SYNC_BENCH=1 scripts/check.sh
if [ "${SYNC_BENCH:-0}" = "1" ]; then
    echo "== scripts/bench_sync.sh"
    scripts/bench_sync.sh
fi

# Opt-in: tracing-overhead benchmark (writes BENCH_trace.json); enable
# with TRACE_BENCH=1 scripts/check.sh
if [ "${TRACE_BENCH:-0}" = "1" ]; then
    echo "== scripts/bench_trace.sh"
    scripts/bench_trace.sh
fi

# Build-engine smoke: a tiny-scale run of the build benchmark, whose
# built-in cross-engine query check turns this red if the batched
# engine's answers ever drift from per-root. Always on (fast at this
# scale); the JSON goes to a temp dir so the committed trajectory only
# changes via the opt-in below.
echo "== build-engine smoke (cross-engine equivalence at tiny scale)"
SCALE=0.02 DATASETS=Wiki-Vote OUT="$tracedir/BENCH_build_smoke.json" \
    scripts/bench_build.sh >/dev/null

# Repository-benchmark smoke: BENCHMARK.json's four workloads (build,
# serve_point, serve_batch, living_mixed) through the real binaries at
# scale 0.05. The benchmark refuses to report on a wrong answer, an
# abnormal child exit or a leftover process, so this is an end-to-end
# correctness gate, not a timing one. Writes only under .bench_build/.
echo "== benchmark smoke (benchmark/run.sh -smoke: four workloads, answers checked)"
bash benchmark/run.sh -smoke

# Opt-in: full build-engine benchmark (writes BENCH_build.json); enable
# with BUILD_BENCH=1 scripts/check.sh
if [ "${BUILD_BENCH:-0}" = "1" ]; then
    echo "== scripts/bench_build.sh"
    scripts/bench_build.sh
fi

# Opt-in: living-graph update benchmark (writes BENCH_update.json) —
# durable insert throughput, WAL replay, fold/rebuild compaction walls
# and publish windows; enable with UPDATE_BENCH=1 scripts/check.sh
if [ "${UPDATE_BENCH:-0}" = "1" ]; then
    echo "== scripts/bench_update.sh"
    scripts/bench_update.sh
fi

echo "all checks passed"
