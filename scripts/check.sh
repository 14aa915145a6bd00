#!/bin/sh
# Repo-wide checks, in order: go build, gofmt, go vet, the custom
# parapll-vet suite (four analyzers), the internal-importers check (every
# package under internal/ is imported by some other package, tests
# included), the short suite under the race detector, a
# -count=20 race pass over the lock-free structures, the distance
# cache, the lock-order hammers, the goroutine-lifetime tests and the
# fault-injection tests of the durability contract (TestSaveFaults,
# TestSaveLabelsWriteFaultLeavesNothing, TestLogFaults,
# TestFailedSyncPoisonsLog, TestCompactFaults, TestUpdateLogsBeforeApply,
# TestCompactOnFailedLog, and the apply fault,
# TestTruncatedLiveIndexUpdateAnswers500 and
# TestCompactWaitingOnAFailedApply), a
# -count=20 plain pass over the two lock-order tests, the
# tier-1 command (go test ./...; among what it gates,
# TestOfflineToolsLinkNoNetwork fails if any command but parapll-server
# and parapll-node depends on net or runtime/cgo), every in-package benchmark under
# internal/ run once (-benchtime 1x), a fuzz smoke on the five
# wire and file decoders, on the degree sequence every build
# defaults to (FuzzDegreeOrder), on the build-time head's prune
# test (FuzzHeadCovers) and on the streamed index writer against the
# heap image and the reference encoder (FuzzStreamedPIDM), the crash-recovery and flight-recorder e2e tests by
# name, a cross-compile sweep, a trace smoke through parapll-index /
# parapll-trace, and the repository benchmark's smoke (benchmark/run.sh
# -smoke). FUZZTIME (per fuzz target, default 5s) is the only
# environment knob. Run before every PR:
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

echo "== parapll-vet ./... (four custom analyzers: mmapkeepalive, atomicfield, infguard, snapgen)"
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

# A package under internal/ that no other package imports - not even
# from a test - is code nothing runs or checks. go list names every
# package's Imports, TestImports and XTestImports; an external test
# package importing its own package does not count.
echo "== internal importers (a package under internal/ nothing else imports)"
importers='{{$p := .ImportPath}}{{range .Imports}}{{if ne . $p}}{{println .}}{{end}}{{end}}{{range .TestImports}}{{if ne . $p}}{{println .}}{{end}}{{end}}{{range .XTestImports}}{{if ne . $p}}{{println .}}{{end}}{{end}}'
imported=$(go list -f "$importers" ./... | sort -u)
if orphans=$(go list ./internal/... | grep -vxF "$imported"); then
    printf '%s\n' "$orphans" >&2
    echo "check.sh: no other package imports the packages above; delete them or use them" >&2
    exit 1
fi

echo "== go test -race -short ./..."
go test -race -short ./...

# The lock-free structures whose ordering bugs need an interleaving an
# instruction wide (a lapped trace-ring writer, a label list regrown
# between a reader's two loads, a label store head block opened or a
# cell lowered beside a reader's prune test), and the batch kernel's
# pooled scratch under concurrent QueryBatch calls: one pass rarely hits
# it, twenty do.
# The distance cache rides along: its striped table under concurrent
# Get/Put, and under readers that query while generations are swapped
# across the slot tag's wrap point. So do the living graph's lock-free
# reads: queries beside copy-on-write delta runs being published, and
# beside compactions swapping the live index. And so does the server
# snapshot: requests beside hot reloads, which read the server's
# configuration as plain fields written once before NewPending returns.
# So do the lock order and the goroutine lifetimes: TestPipelineHammer
# runs every pipeline entry point at once under a deadline (a lock-order
# cycle, even one through a callback, deadlocks it),
# TestHeldAllgatherKeepsWorkersRunning holds one rank's sync round and
# wants every rank's workers to go on (a lock held across the wait, or
# handed to the round's goroutine, stalls them), and
# TestCloseLeavesNoGoroutine (compact, mpi) plus the failure paths
# TestRootFailureReleasesPeers (mpi), TestNodeDeathFailsFast and
# TestTCPNodeDeathFailsFast (cluster) fail on any goroutine of the module
# left behind; the TCP ones run the mesh over internal/mpi/tcpnet's
# sockets from their test files, so the packages below list where the
# tests live, not the transport's glue. Between them these tests contend every persistent mutex of
# the concurrent packages (EXPERIMENTS.md "Tests hold the lock order
# alone" maps each mutex to its test); no analyzer checks the lock
# order. Nor does one check the durability contract: the fault tests
# fail every write, fsync, close, truncate, rename and directory fsync of
# the atomic saves, the WAL and a compaction in turn through
# internal/fileio/faultfs, and want the error surfaced, the log failed
# where a record could be lost, and every acknowledged insert back after
# a reopen; TestUpdateLogsBeforeApply wants no insert visible at its own
# WAL fsync, and TestTruncatedLiveIndexUpdateAnswers500 (the apply fault)
# a /update that faults past its fsync to release the writer mutex, fail
# the log so the next /update answers 503, and come back exactly on a
# reopen; TestCompactWaitingOnAFailedApply wants a Compact that waited on
# that mutex to fold nothing over the half-applied insert (DESIGN.md "The
# durability contract is held by fault tests").
echo "== go test -race -count=20 (trace ring, label store, label store head, batch scratch pool, distance cache, living-graph readers, server snapshot, lock order, goroutine lifetimes, durability faults)"
go test -race -count=20 -run 'TestConcurrentEmitters|TestStore|TestQueryBatchConcurrent|TestCacheConcurrent|TestCachedReloadWhileQuerying|TestDeltaReaderHammer|TestHammerCompactionUnderQueries|TestHotReloadHammer|TestPipelineHammer|TestHeldAllgatherKeepsWorkersRunning|TestCloseLeavesNoGoroutine|TestRootFailureReleasesPeers|TestNodeDeathFailsFast|TestTCPNodeDeathFailsFast|TestSaveFaults|TestSaveLabelsWriteFaultLeavesNothing|TestLogFaults|TestFailedSyncPoisonsLog|TestCompactFaults|TestUpdateLogsBeforeApply|TestCompactOnFailedLog|TestTruncatedLiveIndexUpdateAnswers500|TestCompactWaitingOnAFailedApply' \
    ./internal/trace ./internal/label ./internal/qcache ./internal/dynamic ./internal/compact ./internal/server ./internal/mpi ./internal/cluster ./internal/fileio ./internal/wal

# The two lock-order tests again without the race detector: a seeded
# lock held across a sync round's wait, or a lock-order cycle in the
# pipeline, must turn them red in plain runs too, where goroutines are
# scheduled as in production. The cluster test holds the build
# goroutine until the round's goroutine has parked, so the catch does
# not rest on the race detector's timing.
echo "== go test -count=20 (lock order, plain)"
go test -count=20 -run 'TestPipelineHammer|TestHeldAllgatherKeepsWorkersRunning' ./internal/compact ./internal/cluster

echo "== go test ./... (tier-1)"
go test ./...

# Tier-1 compiles the benchmarks' bodies but never runs them, so one
# that panics or calls b.Fatal (a benchmark that feeds the radix heap a
# falling key, say) would rot unseen. One iteration of each keeps them
# honest; timing them stays manual.
echo "== go test -bench . -benchtime 1x ./internal/... (every in-package benchmark once)"
go test -run '^$' -bench . -benchtime 1x ./internal/...

# Fuzz smoke: a few seconds on each wire decoder keeps the targets
# compiling and catches shallow regressions; long runs stay manual
# (go test -fuzz=... -fuzztime=10m ./internal/...).
FUZZTIME="${FUZZTIME:-5s}"
echo "== fuzz smoke (${FUZZTIME} per target)"
go test -fuzz=FuzzDecodeFrame -fuzztime="$FUZZTIME" -run '^$' ./internal/cluster/
go test -fuzz=FuzzOpenPIDM -fuzztime="$FUZZTIME" -run '^$' ./internal/label/
go test -fuzz=FuzzWALReplay -fuzztime="$FUZZTIME" -run '^$' ./internal/wal/
go test -fuzz=FuzzBatchDecode -fuzztime="$FUZZTIME" -run '^$' ./internal/server/
go test -fuzz=FuzzReadBinary -fuzztime="$FUZZTIME" -run '^$' ./internal/graph/
go test -fuzz=FuzzDegreeOrder -fuzztime="$FUZZTIME" -run '^$' ./internal/graph/
go test -fuzz=FuzzHeadCovers -fuzztime="$FUZZTIME" -run '^$' ./internal/label/
go test -fuzz=FuzzStreamedPIDM -fuzztime="$FUZZTIME" -run '^$' ./internal/label/

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

# Repository-benchmark smoke: BENCHMARK.json's four workloads (build,
# serve_point, serve_batch, living_mixed) through the real binaries at
# scale 0.05. The benchmark refuses to report on a wrong answer, an
# abnormal child exit or a leftover process, so this is an end-to-end
# correctness gate, not a timing one. Writes only under .bench_build/.
echo "== benchmark smoke (benchmark/run.sh -smoke: four workloads, answers checked)"
bash benchmark/run.sh -smoke

echo "all checks passed"
