package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	if tr.Sample() {
		t.Fatal("nil tracer samples")
	}
	if tr.Now() != 0 || tr.At(time.Now()) != 0 {
		t.Fatal("nil tracer clock not zero")
	}
	if tr.Drops() != 0 {
		t.Fatal("nil tracer drops not zero")
	}
	if got := tr.Events(); got != nil {
		t.Fatalf("nil tracer events = %v", got)
	}
	var b *Buf
	b.Span(1, 0, 10) // must not panic
	b.FlowStart(1, 0, 7)
	b.FlowEnd(1, 0, 7)
}

func TestSpanRoundTrip(t *testing.T) {
	tr := New(3, 64)
	tr.Enable()
	work := tr.Intern("work", "root", "pruned")
	point := tr.Intern("point")
	b := tr.Buf(5)
	b.Span(work, 100, 350, 42, 7)
	b.Span(point, 400, 400)
	b.FlowStart(work, 500, 0xdead)
	b.FlowEnd(work, 600, 0xdead)

	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	sp := evs[0]
	if sp.Kind != KindSpan || sp.Name != "work" || sp.Ts != 100 || sp.Dur != 250 {
		t.Fatalf("span = %+v", sp)
	}
	if len(sp.Args) != 2 || sp.Args[0] != 42 || sp.Args[1] != 7 {
		t.Fatalf("span args = %v", sp.Args)
	}
	if sp.TID != 5 {
		t.Fatalf("span tid = %d", sp.TID)
	}
	if evs[1].Kind != KindSpan || evs[1].Name != "point" || evs[1].Ts != 400 || evs[1].Dur != 0 {
		t.Fatalf("zero-length span = %+v", evs[1])
	}
	if evs[2].Kind != KindFlowStart || evs[2].Args[0] != 0xdead {
		t.Fatalf("flow start = %+v", evs[2])
	}
	if evs[3].Kind != KindFlowEnd || evs[3].Args[0] != 0xdead {
		t.Fatalf("flow end = %+v", evs[3])
	}
}

func TestDisabledRecordsNothing(t *testing.T) {
	tr := New(0, 64)
	name := tr.Intern("x")
	b := tr.Buf(0)
	b.Span(name, 0, 10) // disabled: dropped silently, not counted
	if got := tr.Events(); len(got) != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(got))
	}
	if tr.Drops() != 0 {
		t.Fatal("disabled emission counted as drop")
	}
	tr.Enable()
	b.Span(name, 0, 10)
	tr.Disable()
	b.Span(name, 20, 30)
	if got := tr.Events(); len(got) != 1 {
		t.Fatalf("got %d events after disable, want 1", len(got))
	}
}

// TestSpanAlwaysWhileDisabled: SpanAlways records on a disabled tracer
// through the same ring, and Buf.Events reads one lane back in emission
// order after it wrapped.
func TestSpanAlwaysWhileDisabled(t *testing.T) {
	tr := New(0, 4)
	name := tr.Intern("slow", "i")
	b := tr.Buf(TIDSlow)
	tr.Buf(TIDRequest).Span(name, 0, 1, 99) // disabled: dropped
	for i := 0; i < 6; i++ {
		b.SpanAlways(name, int64(10*i), int64(10*i+5), uint64(i))
	}
	evs := b.Events()
	if len(evs) != 4 || b.Drops() != 2 || len(tr.Events()) != 4 {
		t.Fatalf("lane holds %d events with %d drops (tracer %d), want the newest 4 and 2", len(evs), b.Drops(), len(tr.Events()))
	}
	for k, ev := range evs {
		if i := k + 2; ev.TID != TIDSlow || ev.Args[0] != uint64(i) || ev.Ts != int64(10*i) || ev.Dur != 5 {
			t.Fatalf("event %d = %+v, want span %d (emission order)", k, ev, i)
		}
	}
	now := time.Now()
	if got := tr.Time(tr.At(now)); !got.Equal(now) {
		t.Fatalf("Time(At(%v)) = %v", now, got)
	}
}

func TestRingWraparoundAndDrops(t *testing.T) {
	const cap = 16
	tr := New(0, cap)
	tr.Enable()
	name := tr.Intern("e")
	b := tr.Buf(1)
	const total = 3*cap + 5
	for i := 0; i < total; i++ {
		b.Span(name, int64(i), int64(i)+1)
	}
	if got, want := b.Drops(), uint64(total-cap); got != want {
		t.Fatalf("drops = %d, want %d", got, want)
	}
	if got, want := tr.Drops(), uint64(total-cap); got != want {
		t.Fatalf("tracer drops = %d, want %d", got, want)
	}
	evs := tr.Events()
	if len(evs) != cap {
		t.Fatalf("got %d events, want %d (ring capacity)", len(evs), cap)
	}
	// Survivors must be exactly the newest cap emissions.
	seen := map[int64]bool{}
	for _, ev := range evs {
		seen[ev.Ts] = true
	}
	for i := total - cap; i < total; i++ {
		if !seen[int64(i)] {
			t.Fatalf("newest event ts=%d missing after wraparound", i)
		}
	}
}

func TestCapacityRounding(t *testing.T) {
	tr := New(0, 100) // rounds to 128
	tr.Enable()
	name := tr.Intern("e")
	b := tr.Buf(0)
	for i := 0; i < 128; i++ {
		b.Span(name, int64(i), int64(i))
	}
	if tr.Drops() != 0 {
		t.Fatalf("drops = %d before exceeding rounded capacity", tr.Drops())
	}
	b.Span(name, 128, 128)
	if tr.Drops() != 1 {
		t.Fatalf("drops = %d, want 1", tr.Drops())
	}
}

func TestSampling(t *testing.T) {
	tr := New(0, 64)
	if tr.Sample() {
		t.Fatal("disabled tracer sampled")
	}
	tr.Enable()
	for i := 0; i < 5; i++ {
		if !tr.Sample() {
			t.Fatal("sampleN=0 must record every request")
		}
	}
	tr.SetSample(4)
	hits := 0
	for i := 0; i < 400; i++ {
		if tr.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 sampling hit %d of 400", hits)
	}
	tr.SetSample(1)
	if !tr.Sample() {
		t.Fatal("sampleN=1 must record every request")
	}
}

func TestInternIdempotentAndArgLimit(t *testing.T) {
	tr := New(0, 64)
	a := tr.Intern("same", "x")
	b := tr.Intern("same", "ignored-second-time")
	if a != b {
		t.Fatalf("Intern not idempotent: %d vs %d", a, b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intern accepted 5 arg names")
		}
	}()
	tr.Intern("too-many", "a", "b", "c", "d", "e")
}

func TestAtMatchesWallDeltas(t *testing.T) {
	tr := New(0, 64)
	t1 := time.Now()
	t2 := t1.Add(1500 * time.Microsecond)
	if got := tr.At(t2) - tr.At(t1); got != 1500*1000 {
		t.Fatalf("At delta = %dns, want 1500µs", got)
	}
}

// TestConcurrentEmitters hammers one tracer from many goroutines —
// multiple lanes plus a shared lane plus a concurrent reader — under
// -race. Events must decode without tearing: every decoded event is
// one the writers actually emitted (ts == first arg word).
func TestConcurrentEmitters(t *testing.T) {
	tr := New(0, 256)
	tr.Enable()
	name := tr.Intern("c", "echo")
	const workers = 8
	const perWorker = 5000
	const ringCap = 256
	shared := tr.Buf(999)
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() { // concurrent reader: live capture while writes land
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ev := range tr.Events() {
				if len(ev.Args) == 1 && ev.Args[0] != uint64(ev.Ts) {
					panic(fmt.Sprintf("torn event: ts=%d arg=%d", ev.Ts, ev.Args[0]))
				}
			}
		}
	}()
	var writers sync.WaitGroup
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			own := tr.Buf(w)
			for i := 0; i < perWorker; i++ {
				ts := int64(w*perWorker + i)
				own.Span(name, ts, ts+1, uint64(ts))
				shared.Span(name, ts, ts+1, uint64(ts))
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events recorded")
	}
	for _, ev := range evs {
		if len(ev.Args) != 1 || ev.Args[0] != uint64(ev.Ts) {
			t.Fatalf("torn event after quiesce: %+v", ev)
		}
	}
	// Per-lane accounting: survivors + drops == emissions.
	for w := 0; w < workers; w++ {
		b := tr.Buf(w)
		if got := b.Drops(); got != perWorker-ringCap {
			t.Fatalf("lane %d drops = %d, want %d", w, got, perWorker-ringCap)
		}
	}
	if got := shared.Drops(); got != workers*perWorker-ringCap {
		t.Fatalf("shared lane drops = %d, want %d", got, workers*perWorker-ringCap)
	}
}

// TestEventsOrdered asserts the exporter precondition: per (tid),
// timestamps are non-decreasing in the decoded snapshot.
func TestEventsOrdered(t *testing.T) {
	tr := New(0, 1024)
	tr.Enable()
	name := tr.Intern("o")
	for lane := 0; lane < 4; lane++ {
		b := tr.Buf(lane)
		for i := 0; i < 100; i++ {
			ts := int64((i*7 + lane*13) % 501)
			b.Span(name, ts, ts)
		}
	}
	evs := tr.Events()
	last := map[int]int64{}
	for _, ev := range evs {
		if prev, ok := last[ev.TID]; ok && ev.Ts < prev {
			t.Fatalf("lane %d goes back in time: %d < %d", ev.TID, ev.Ts, prev)
		}
		last[ev.TID] = ev.Ts
	}
	if len(evs) != 400 {
		t.Fatalf("got %d events, want 400", len(evs))
	}
}

// BenchmarkEmitDisabled measures the disabled hot path: a nil-buf call
// and a disabled-flag call. Both must be a handful of instructions —
// this is the number DESIGN.md quotes for "tracing off costs nothing".
func BenchmarkEmitDisabled(b *testing.B) {
	b.Run("nil-buf", func(b *testing.B) {
		var buf *Buf
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Span(1, 0, 1)
		}
	})
	b.Run("disabled-flag", func(b *testing.B) {
		tr := New(0, 64)
		name := tr.Intern("x")
		buf := tr.Buf(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf.Span(name, 0, 1)
		}
	})
}

// BenchmarkEmitEnabled is the recording path, for the overhead table.
func BenchmarkEmitEnabled(b *testing.B) {
	tr := New(0, 1<<14)
	tr.Enable()
	name := tr.Intern("x", "a", "b")
	buf := tr.Buf(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Span(name, int64(i), int64(i)+10, 1, 2)
	}
}

func TestCaptureJSONSchema(t *testing.T) {
	tr := New(2, 64)
	tr.Enable()
	tr.SetProcessName("rank 2")
	tr.SetThreadName(7, "worker 7")
	work := tr.Intern("work", "root")
	b := tr.Buf(7)
	b.Span(work, 1000, 2500, 99)
	b.FlowStart(work, 3000, 0xabc)
	b.Span(work, 4000, 4000)

	data, err := tr.Capture(0)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CheckCapture(data)
	if err != nil {
		t.Fatalf("CheckCapture: %v\n%s", err, data)
	}
	if st.Spans != 2 || st.Flows != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Pids) != 1 || st.Pids[0] != 2 {
		t.Fatalf("pids = %v", st.Pids)
	}

	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	evs := raw["traceEvents"].([]any)
	// metadata first: process_name then thread_name
	first := evs[0].(map[string]any)
	if first["ph"] != "M" || first["name"] != "process_name" {
		t.Fatalf("first event = %v", first)
	}
	span := evs[2].(map[string]any)
	if span["ph"] != "X" {
		t.Fatalf("span = %v", span)
	}
	if span["ts"].(float64) != 1.0 || span["dur"].(float64) != 1.5 {
		t.Fatalf("span µs = ts %v dur %v", span["ts"], span["dur"])
	}
	args := span["args"].(map[string]any)
	if args["root"].(float64) != 99 {
		t.Fatalf("span args = %v", args)
	}
	od := raw["otherData"].(map[string]any)
	if od["pid"].(float64) != 2 {
		t.Fatalf("otherData = %v", od)
	}
	if _, err := json.Number(od["base_wall_nanos"].(string)).Int64(); err != nil {
		t.Fatalf("base_wall_nanos not an int string: %v", od["base_wall_nanos"])
	}
}

func TestCaptureSince(t *testing.T) {
	tr := New(0, 64)
	tr.Enable()
	name := tr.Intern("e")
	b := tr.Buf(0)
	b.Span(name, 100, 100)
	b.Span(name, 200, 200)
	b.Span(name, 300, 300)
	data, err := tr.Capture(150)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CheckCapture(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 2 { // no metadata (no names set), only ts 200 and 300
		t.Fatalf("got %d events, want 2", st.Events)
	}
}

func TestNilTracerCapture(t *testing.T) {
	var tr *Tracer
	data, err := tr.Capture(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CheckCapture(data); err != nil {
		t.Fatalf("nil capture invalid: %v", err)
	}
}

func TestMergeCaptures(t *testing.T) {
	// Two "ranks" whose tracers were created at different wall times;
	// the merge must re-base both onto the earlier epoch.
	mk := func(pid int, wallNanos int64, flowID uint64, send bool) []byte {
		tr := New(pid, 64)
		tr.baseWall = wallNanos
		tr.Enable()
		tr.SetProcessName(fmt.Sprintf("rank %d", pid))
		name := tr.Intern("sync")
		b := tr.Buf(TIDSync)
		b.Span(name, 1000, 2000)
		if send {
			b.FlowStart(name, 1500, flowID)
		} else {
			b.FlowEnd(name, 1800, flowID)
		}
		data, err := tr.Capture(0)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	const base = int64(1_700_000_000_000_000_000)
	c0 := mk(0, base, 0xf00, true)
	c1 := mk(1, base+5_000_000, 0xf00, false) // started 5ms later

	merged, err := MergeCaptures([][]byte{c0, c1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := CheckCapture(merged)
	if err != nil {
		t.Fatalf("merged capture invalid: %v\n%s", err, merged)
	}
	if len(st.Pids) != 2 {
		t.Fatalf("merged pids = %v", st.Pids)
	}
	if st.Flows != 2 {
		t.Fatalf("merged flows = %d, want 2", st.Flows)
	}

	var cap jsonCapture
	if err := json.Unmarshal(merged, &cap); err != nil {
		t.Fatal(err)
	}
	// rank 1's span must be shifted +5ms (5000µs) relative to rank 0's.
	var ts0, ts1 float64
	for _, ev := range cap.TraceEvents {
		if ev.Ph == "X" {
			if ev.Pid == 0 {
				ts0 = ev.Ts
			} else {
				ts1 = ev.Ts
			}
		}
	}
	if ts1-ts0 != 5000 {
		t.Fatalf("rank 1 shift = %fµs, want 5000", ts1-ts0)
	}
	// Flow ends pair with starts across pids.
	var starts, ends []int
	for _, ev := range cap.TraceEvents {
		if ev.ID != "0xf00" {
			continue
		}
		switch ev.Ph {
		case "s":
			starts = append(starts, ev.Pid)
		case "f":
			ends = append(ends, ev.Pid)
		}
	}
	if len(starts) != 1 || starts[0] != 0 || len(ends) != 1 || ends[0] != 1 {
		t.Fatalf("flow 0xf00 starts on pids %v and ends on %v, want [0] and [1]", starts, ends)
	}
}

func TestMergeFiles(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for pid := 0; pid < 2; pid++ {
		tr := New(pid, 64)
		tr.Enable()
		name := tr.Intern("e")
		tr.Buf(0).Span(name, int64(pid)*100, int64(pid)*100)
		data, err := tr.Capture(0)
		if err != nil {
			t.Fatal(err)
		}
		p := fmt.Sprintf("%s/rank%d.json", dir, pid)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	out := dir + "/merged.json"
	if err := MergeFiles(out, paths); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	st, err := CheckCapture(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Events != 2 || len(st.Pids) != 2 {
		t.Fatalf("merged stats = %+v", st)
	}
}

func TestMergeRejectsGarbage(t *testing.T) {
	if _, err := MergeCaptures(nil); err == nil {
		t.Fatal("empty merge accepted")
	}
	if _, err := MergeCaptures([][]byte{[]byte("not json")}); err == nil {
		t.Fatal("garbage capture accepted")
	}
	if _, err := MergeCaptures([][]byte{[]byte(`{"foo":1}`)}); err == nil {
		t.Fatal("capture without traceEvents accepted")
	}
}

func TestCheckCaptureRejects(t *testing.T) {
	if _, err := CheckCapture([]byte("nope")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := CheckCapture([]byte(`{}`)); err == nil {
		t.Fatal("missing traceEvents accepted")
	}
	bad := `{"traceEvents":[{"ph":"X","ts":5,"pid":0,"tid":0},{"ph":"X","ts":3,"pid":0,"tid":0}]}`
	if _, err := CheckCapture([]byte(bad)); err == nil {
		t.Fatal("time-travel accepted")
	}
	unknown := `{"traceEvents":[{"ph":"Z","ts":0,"pid":0,"tid":0}]}`
	if _, err := CheckCapture([]byte(unknown)); err == nil {
		t.Fatal("unknown phase accepted")
	}
}
