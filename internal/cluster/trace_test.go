package cluster

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/trace"
)

// tracedRunLocal builds with one tracer per simulated rank and returns
// the tracers alongside the build results.
func tracedRunLocal(t *testing.T, g *graph.Graph, nodes int, template Options) ([]*trace.Tracer, []*Stats) {
	t.Helper()
	tracers := make([]*trace.Tracer, nodes)
	for r := range tracers {
		tracers[r] = trace.New(r, 1<<12)
		tracers[r].Enable()
	}
	template.TracerFor = func(rank int) *trace.Tracer { return tracers[rank] }
	idxs, stats, err := RunLocal(g, nodes, template)
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, g, idxs[0])
	for r := 1; r < nodes; r++ {
		if !reflect.DeepEqual(idxs[0], idxs[r]) {
			t.Fatalf("rank %d traced index differs", r)
		}
	}
	return tracers, stats
}

// spanByRound indexes one rank's sync spans: name -> round -> duration
// in nanoseconds.
func spanByRound(evs []trace.Event) map[string]map[uint64]int64 {
	out := map[string]map[uint64]int64{}
	for _, ev := range evs {
		if ev.Kind != trace.KindSpan || len(ev.Args) == 0 {
			continue
		}
		switch ev.Name {
		case "sync record", "sync pack", "sync exchange", "sync merge":
			m := out[ev.Name]
			if m == nil {
				m = map[uint64]int64{}
				out[ev.Name] = m
			}
			m[ev.Args[0]] += ev.Dur
		}
	}
	return out
}

// TestTraceStatsConsistency: the per-round trace spans and the
// RoundStats timing fields come from the same time.Time endpoints, so
// they must agree exactly — record+pack == PackTime, exchange ==
// ExchangeTime, merge == MergeTime, nanosecond for nanosecond.
func TestTraceStatsConsistency(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(610)), 60, 150)
	const nodes, syncs = 2, 3
	tracers, stats := tracedRunLocal(t, g, nodes, Options{Threads: 2, SyncCount: syncs})
	for r := 0; r < nodes; r++ {
		spans := spanByRound(tracers[r].Events())
		if len(stats[r].Rounds) != syncs {
			t.Fatalf("rank %d: %d rounds, want %d", r, len(stats[r].Rounds), syncs)
		}
		for round, rs := range stats[r].Rounds {
			rd := uint64(round)
			if got, want := spans["sync record"][rd]+spans["sync pack"][rd], rs.PackTime.Nanoseconds(); got != want {
				t.Fatalf("rank %d round %d: record+pack spans %dns != PackTime %dns", r, round, got, want)
			}
			if got, want := spans["sync exchange"][rd], rs.ExchangeTime.Nanoseconds(); got != want {
				t.Fatalf("rank %d round %d: exchange span %dns != ExchangeTime %dns", r, round, got, want)
			}
			if got, want := spans["sync merge"][rd], rs.MergeTime.Nanoseconds(); got != want {
				t.Fatalf("rank %d round %d: merge span %dns != MergeTime %dns", r, round, got, want)
			}
			if rs.PackTime < 0 || rs.ExchangeTime < 0 || rs.MergeTime < 0 {
				t.Fatalf("rank %d round %d: negative time in %+v", r, round, rs)
			}
		}
	}
}

// TestTwoRankMergedTimeline is the acceptance test: a 2-rank RunLocal
// build with tracing on produces per-rank captures that merge into one
// valid Chrome trace-event file whose comm spans pair across ranks.
func TestTwoRankMergedTimeline(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(611)), 50, 120)
	const nodes, syncs = 2, 2
	tracers, _ := tracedRunLocal(t, g, nodes, Options{Threads: 2, SyncCount: syncs})

	captures := make([][]byte, nodes)
	for r, tr := range tracers {
		data, err := tr.Capture(0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := trace.CheckCapture(data); err != nil {
			t.Fatalf("rank %d capture invalid: %v", r, err)
		}
		captures[r] = data
	}
	merged, err := trace.MergeCaptures(captures)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.CheckCapture(merged)
	if err != nil {
		t.Fatalf("merged capture invalid: %v", err)
	}
	if len(st.Pids) != nodes {
		t.Fatalf("merged pids = %v, want both ranks", st.Pids)
	}
	if st.Spans == 0 {
		t.Fatal("merged capture has no spans")
	}

	// Every round's frame flow must pair: rank r's flow start with the
	// other rank's flow end, ids reconstructed from the frame headers.
	pairs, err := flowPairs(merged)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nodes; r++ {
		for round := 0; round < syncs; round++ {
			id := fmt.Sprintf("0x%x", flowID(r, round))
			p, ok := pairs[id]
			if !ok {
				t.Fatalf("flow %s (rank %d round %d) missing from merged capture", id, r, round)
			}
			if len(p[0]) != 1 || p[0][0] != r {
				t.Fatalf("flow %s starts = %v, want [rank %d]", id, p[0], r)
			}
			if len(p[1]) != nodes-1 {
				t.Fatalf("flow %s ends = %v, want %d receivers", id, p[1], nodes-1)
			}
			for _, pid := range p[1] {
				if pid == r {
					t.Fatalf("flow %s ends on its own sender rank %d", id, r)
				}
			}
		}
	}
}

// TestThreeRankMergedTimeline: the cross-rank merge on a 3-rank
// chan-transport build — every rank's capture lands in one file, worker
// spans carry every rank's pid, and all 3×rounds comm edges pair.
func TestThreeRankMergedTimeline(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(612)), 60, 150)
	const nodes, syncs = 3, 2
	tracers, stats := tracedRunLocal(t, g, nodes, Options{Threads: 2, SyncCount: syncs})

	captures := make([][]byte, nodes)
	for r, tr := range tracers {
		data, err := tr.Capture(0)
		if err != nil {
			t.Fatal(err)
		}
		captures[r] = data
	}
	merged, err := trace.MergeCaptures(captures)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.CheckCapture(merged)
	if err != nil {
		t.Fatalf("merged capture invalid: %v", err)
	}
	if len(st.Pids) != nodes {
		t.Fatalf("merged pids = %v, want 3 ranks", st.Pids)
	}
	pairs, err := flowPairs(merged)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < nodes; r++ {
		if len(stats[r].Rounds) != syncs {
			t.Fatalf("rank %d: %d rounds", r, len(stats[r].Rounds))
		}
		for round := 0; round < syncs; round++ {
			id := fmt.Sprintf("0x%x", flowID(r, round))
			p, ok := pairs[id]
			if !ok {
				t.Fatalf("flow %s missing", id)
			}
			if len(p[0]) != 1 || len(p[1]) != nodes-1 {
				t.Fatalf("flow %s pairing = starts %v ends %v", id, p[0], p[1])
			}
		}
	}
}

// TestClusterUntracedUnaffected: a nil tracer must leave the build
// exact and emit nothing (guards the disabled hot path in the sync
// pipeline).
func TestClusterUntracedUnaffected(t *testing.T) {
	g := randomGraph(rand.New(rand.NewSource(613)), 40, 90)
	idxs, stats, err := RunLocal(g, 2, Options{Threads: 2, SyncCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, g, idxs[0])
	for _, s := range stats {
		for i, rs := range s.Rounds {
			if rs.PackTime < 0 || rs.ExchangeTime < 0 || rs.MergeTime < 0 {
				t.Fatalf("round %d: negative times without tracer: %+v", i, rs)
			}
		}
	}
}

// flowPairs parses a capture and returns, per flow id, the pids seen on
// its "s" (start) and "f" (end) events, so a test can assert that comm
// edges pair across ranks.
func flowPairs(data []byte) (map[string][2][]int, error) {
	var capture struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid int    `json:"pid"`
			ID  string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &capture); err != nil {
		return nil, err
	}
	pairs := map[string][2][]int{}
	for _, ev := range capture.TraceEvents {
		if ev.ID == "" {
			continue
		}
		p := pairs[ev.ID]
		switch ev.Ph {
		case "s":
			p[0] = append(p[0], ev.Pid)
		case "f":
			p[1] = append(p[1], ev.Pid)
		default:
			continue
		}
		pairs[ev.ID] = p
	}
	return pairs, nil
}
