package flight

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapll/internal/metrics"
	"parapll/internal/trace"
)

// Spool returns the current bundle paths, oldest first.
func (r *Recorder) Spool() []string {
	names := spoolNames(r.dir)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = filepath.Join(r.dir, n)
	}
	return out
}

// testTracer builds an enabled tracer with a few span events in the ring.
func testTracer(t *testing.T) *trace.Tracer {
	t.Helper()
	tr := trace.New(1, 1024)
	tr.Enable()
	id := tr.Intern("test.op", "k")
	for i := 0; i < 5; i++ {
		t0 := tr.Now()
		t1 := tr.Now()
		tr.Buf(100).Span(id, t0, t1, uint64(i))
	}
	return tr
}

// capture triggers a bundle and parses it back from the spool.
func capture(t *testing.T, rec *Recorder) *Bundle {
	t.Helper()
	path, err := rec.Trigger("probe")
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading bundle: %v", err)
	}
	b, err := ParseBundle(data)
	if err != nil {
		t.Fatalf("ParseBundle: %v", err)
	}
	return b
}

// TestRecorderBundleRoundTrip: Trigger writes a self-contained bundle
// whose embedded trace passes trace.CheckCapture and whose rings and
// source payloads survive a parse round trip.
func TestRecorderBundleRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("http.requests.query").Add(3)
	tr := testTracer(t)
	rec, err := New(t.TempDir(), Sources{
		Tracer:   tr,
		Registry: reg,
		Stats: func() any {
			return map[string]any{"vertices": 5, "wal": map[string]int{"wal_records": 2}}
		},
		Health: func() any { return map[string]string{"status": "ok"} },
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}

	rec.RecordError("reload", errors.New("boom"))
	rec.SampleMetrics()

	path, err := rec.Trigger("test-reason")
	if err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading bundle: %v", err)
	}
	b, err := ParseBundle(data)
	if err != nil {
		t.Fatalf("ParseBundle: %v", err)
	}
	if b.Meta.Reason != "test-reason" || b.Meta.Seq == 0 || b.Meta.PID != os.Getpid() {
		t.Fatalf("meta = %+v", b.Meta)
	}
	if len(b.Trace) == 0 {
		t.Fatalf("bundle has no embedded trace (trace_error=%q)", b.TraceError)
	}
	st, err := trace.CheckCapture(b.Trace)
	if err != nil {
		t.Fatalf("embedded trace invalid: %v", err)
	}
	if st.Spans == 0 {
		t.Fatal("embedded trace has no spans")
	}
	if len(b.Errors) != 1 || b.Errors[0].Source != "reload" || b.Errors[0].Error != "boom" {
		t.Fatalf("errors = %+v", b.Errors)
	}
	if len(b.MetricRing) != 1 || b.MetricRing[0].Counters["http.requests.query"] != 3 {
		t.Fatalf("metric ring = %+v", b.MetricRing)
	}
	if b.Health == nil {
		t.Fatal("missing health payload")
	}
	// The WAL state rides in the stats payload, as /stats carries it.
	stats, _ := b.Stats.(map[string]any)
	if wal, _ := stats["wal"].(map[string]any); stats["vertices"] != 5.0 || wal["wal_records"] != 2.0 {
		t.Fatalf("stats payload = %v, want vertices 5 and wal.wal_records 2", b.Stats)
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Fatal("bundle has no goroutine profile")
	}
	if b.Heap == "" {
		t.Fatal("bundle has no heap profile")
	}
	if got := reg.Snapshot().Counters["flight.captures_total"]; got != 1 {
		t.Fatalf("flight.captures_total = %d, want 1", got)
	}
}

// TestSpoolBounded: the spool never holds more than MaxBundles files,
// and the survivors are the newest.
func TestSpoolBounded(t *testing.T) {
	rec, err := New(t.TempDir(), Sources{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const extra = 4
	for i := 0; i < MaxBundles+extra; i++ {
		if _, err := rec.Trigger(fmt.Sprintf("r%d", i)); err != nil {
			t.Fatalf("Trigger %d: %v", i, err)
		}
	}
	paths := rec.Spool()
	if len(paths) != MaxBundles {
		t.Fatalf("spool holds %d bundles, want %d: %v", len(paths), MaxBundles, paths)
	}
	for i, p := range paths {
		want := fmt.Sprintf("-r%d.json", extra+i) // the newest MaxBundles survive
		if !strings.Contains(p, want) {
			t.Fatalf("spool[%d] = %s, want reason %s", i, p, want)
		}
	}
}

// TestTriggerAutoRateLimit: automatic captures within MinGap are
// suppressed (and counted), manual ones never are.
func TestTriggerAutoRateLimit(t *testing.T) {
	reg := metrics.NewRegistry()
	rec, err := New(t.TempDir(), Sources{Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, ok, err := rec.TriggerAuto("first"); err != nil || !ok {
		t.Fatalf("first TriggerAuto = ok=%v err=%v", ok, err)
	}
	if _, ok, err := rec.TriggerAuto("second"); err != nil || ok {
		t.Fatalf("second TriggerAuto not suppressed (ok=%v err=%v)", ok, err)
	}
	if _, err := rec.Trigger("manual"); err != nil {
		t.Fatalf("manual Trigger: %v", err)
	}
	if got := len(rec.Spool()); got != 2 {
		t.Fatalf("spool holds %d bundles, want 2", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["flight.suppressed_total"] != 1 {
		t.Fatalf("suppressed_total = %d, want 1", snap.Counters["flight.suppressed_total"])
	}
	if snap.Counters["flight.captures_total"] != 2 {
		t.Fatalf("captures_total = %d, want 2", snap.Counters["flight.captures_total"])
	}
}

// TestErrorRingBounded: the error ring keeps only the newest maxErrors
// records, oldest first.
func TestErrorRingBounded(t *testing.T) {
	rec, err := New(t.TempDir(), Sources{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const extra = 6
	for i := 0; i < maxErrors+extra; i++ {
		rec.RecordError("s", fmt.Errorf("e%d", i))
	}
	errs := capture(t, rec).Errors
	if len(errs) != maxErrors {
		t.Fatalf("ring holds %d, want %d", len(errs), maxErrors)
	}
	for i, e := range errs {
		if want := fmt.Sprintf("e%d", extra+i); e.Error != want {
			t.Fatalf("errs[%d] = %q, want %q", i, e.Error, want)
		}
	}
	rec.RecordError("s", nil) // nil errors are ignored
	if len(capture(t, rec).Errors) != maxErrors {
		t.Fatal("nil error entered the ring")
	}
}

// TestMetricRingBounded: the rolling sample ring stays within
// maxSamples, oldest first.
func TestMetricRingBounded(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("x")
	rec, err := New(t.TempDir(), Sources{Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	const extra = 2
	for i := 0; i < maxSamples+extra; i++ {
		c.Inc()
		rec.SampleMetrics()
	}
	b := capture(t, rec)
	if len(b.MetricRing) != maxSamples {
		t.Fatalf("ring holds %d, want %d", len(b.MetricRing), maxSamples)
	}
	for i, s := range b.MetricRing {
		if want := int64(extra + 1 + i); s.Counters["x"] != want {
			t.Fatalf("ring[%d] x = %d, want %d", i, s.Counters["x"], want)
		}
	}
}

// TestParseBundleRejectsGarbage: non-bundle JSON and non-JSON both fail.
func TestParseBundleRejectsGarbage(t *testing.T) {
	if _, err := ParseBundle([]byte("not json")); err == nil {
		t.Fatal("parsed non-JSON")
	}
	if _, err := ParseBundle([]byte("{}")); err == nil {
		t.Fatal("parsed empty object as a bundle")
	}
}
