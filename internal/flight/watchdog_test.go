package flight

import (
	"sync"
	"testing"
	"time"

	"parapll/internal/metrics"
)

func verdict(t *testing.T, rep HealthReport, name string) Verdict {
	t.Helper()
	for _, v := range rep.Verdicts {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("no verdict %q in %+v", name, rep)
	return Verdict{}
}

// TestWatchdogHysteresis drives a synthetic p99 breach through the
// state machine: one bad window must not alarm, one good window must
// not clear an alarm, and the verdict gauges track the transitions.
func TestWatchdogHysteresis(t *testing.T) {
	if BreachAfter != 2 || ClearAfter != 3 {
		t.Fatalf("test written for BreachAfter 2 and ClearAfter 3, have %d and %d", BreachAfter, ClearAfter)
	}
	reg := metrics.NewRegistry()
	w := NewWatchdog(WatchdogOptions{Registry: reg})
	h := metrics.NewHistogram(metrics.DefaultLatencyBuckets)
	w.AddLatencyRule("query_p99", "us", 0.99, 1000, 1, h)

	breachGauge := func() int64 { return reg.Snapshot().Gauges["slo.breach.query_p99"] }

	// Empty window: healthy.
	if entered := w.Tick(); len(entered) != 0 {
		t.Fatalf("empty window entered breach: %v", entered)
	}
	if rep := w.Health(); rep.Status != "ok" || rep.Ticks != 1 {
		t.Fatalf("health = %+v", rep)
	}

	// First bad window: still no alarm (hysteresis).
	h.Observe(50_000)
	if entered := w.Tick(); len(entered) != 0 {
		t.Fatalf("single bad window alarmed: %v", entered)
	}
	if breachGauge() != 0 {
		t.Fatal("gauge flipped after one bad window")
	}

	// Second consecutive bad window: breach.
	h.Observe(50_000)
	entered := w.Tick()
	if len(entered) != 1 || entered[0] != "query_p99" {
		t.Fatalf("entered = %v, want [query_p99]", entered)
	}
	rep := w.Health()
	if rep.Status != "breach" {
		t.Fatalf("status = %s, want breach", rep.Status)
	}
	v := verdict(t, rep, "query_p99")
	if !v.Breached || v.BreachesTotal != 1 || v.Value <= 1000 {
		t.Fatalf("verdict = %+v", v)
	}
	if breachGauge() != 1 {
		t.Fatal("breach gauge not set")
	}

	// Good windows: the first two must NOT clear (no flapping)...
	for i := 0; i < 2; i++ {
		h.Observe(10)
		w.Tick()
		if !verdict(t, w.Health(), "query_p99").Breached {
			t.Fatalf("cleared after %d good windows (ClearAfter=3)", i+1)
		}
	}
	// ...the third does.
	h.Observe(10)
	w.Tick()
	if verdict(t, w.Health(), "query_p99").Breached || breachGauge() != 0 {
		t.Fatal("did not clear after 3 good windows")
	}

	// Re-entering breach counts again.
	for i := 0; i < 2; i++ {
		h.Observe(50_000)
		w.Tick()
	}
	if v := verdict(t, w.Health(), "query_p99"); !v.Breached || v.BreachesTotal != 2 {
		t.Fatalf("re-breach verdict = %+v", v)
	}

	// An idle (empty-window) stretch counts as healthy and stands the
	// alarm down.
	for i := 0; i < 3; i++ {
		w.Tick()
	}
	if verdict(t, w.Health(), "query_p99").Breached {
		t.Fatal("idle windows did not clear the breach")
	}
}

// TestLatencyRuleReadsTheWindowsDelta: a latency rule judges only what
// its histograms gained since the previous tick. A slow window after a
// long fast run is bad although the lifetime p99 is fast, an idle
// window after slow traffic is healthy, and the rule sums every
// histogram it was given.
func TestLatencyRuleReadsTheWindowsDelta(t *testing.T) {
	w := NewWatchdog(WatchdogOptions{})
	query := metrics.NewHistogram(metrics.DefaultLatencyBuckets)
	batch := metrics.NewHistogram(metrics.DefaultLatencyBuckets)
	w.AddLatencyRule("query_p99", "us", 0.99, 1000, 2, query, batch)
	v := func() Verdict { return verdict(t, w.Health(), "query_p99") }

	// A long fast run: 100 windows of 100 requests at 40us.
	for i := 0; i < 100; i++ {
		for j := 0; j < 100; j++ {
			query.Observe(40)
		}
		w.Tick()
	}
	if got := v(); got.Value != 50 || got.BadStreak != 0 {
		t.Fatalf("fast windows read %+v, want p99 50 and no bad streak", got)
	}

	// One slow window: its own p99 is slow, though 10 000 fast requests
	// keep the lifetime p99 at 50.
	for j := 0; j < 10; j++ {
		query.Observe(50_000)
	}
	w.Tick()
	if got := v(); got.Value != 50_000 || got.BadStreak != 1 {
		t.Fatalf("slow window read %+v, want p99 50000 and a bad streak of 1", got)
	}
	if lifetime := query.Snapshot().Quantile(0.99); lifetime != 50 {
		t.Fatalf("lifetime p99 %d, want 50 (the window, not the lifetime, is slow)", lifetime)
	}
	for j := 0; j < 10; j++ {
		query.Observe(50_000)
	}
	if entered := w.Tick(); len(entered) != 1 {
		t.Fatalf("second slow window entered %v, want [query_p99]", entered)
	}

	// An idle window after slow traffic counts as healthy.
	w.Tick()
	if got := v(); got.Value != 0 || got.GoodStreak != 1 || !got.Breached {
		t.Fatalf("idle window read %+v, want value 0, a good streak of 1, still breached", got)
	}

	// Both histograms reach the rule: one request on each makes the
	// window's two, and a slow /batch alone is as slow as a slow /query.
	query.Observe(40)
	batch.Observe(40)
	w.Tick()
	if got := v(); got.Value != 50 || got.GoodStreak != 2 {
		t.Fatalf("one query and one batch read %+v, want p99 50 (minCount 2 met)", got)
	}
	batch.Observe(50_000)
	batch.Observe(50_000)
	w.Tick()
	if got := v(); got.Value != 50_000 || got.BadStreak != 1 {
		t.Fatalf("slow batch window read %+v, want p99 50000", got)
	}
}

// TestLatencyRuleConcurrentObserve: requests observe the rule's
// histograms while ticks diff them. Every window is either idle or
// reads the one bucket the observations land in, and the windows add
// up to every observation.
func TestLatencyRuleConcurrentObserve(t *testing.T) {
	w := NewWatchdog(WatchdogOptions{})
	hs := []*metrics.Histogram{
		metrics.NewHistogram(metrics.DefaultLatencyBuckets),
		metrics.NewHistogram(metrics.DefaultLatencyBuckets),
	}
	w.AddLatencyRule("query_p99", "us", 0.99, 1000, 1, hs...)
	const workers, perWorker = 4, 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(h *metrics.Histogram) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(2_000)
			}
		}(hs[g%len(hs)])
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	check := func() {
		if got := verdict(t, w.Health(), "query_p99").Value; got != 0 && got != 2_500 {
			t.Fatalf("window read %d, want 0 or 2500", got)
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		w.Tick()
		check()
	}
	w.Tick()
	check()
	// The windows' diffs have consumed every observation: the rule's
	// base is the histograms' total, so one more window is empty.
	w.Tick()
	if got := verdict(t, w.Health(), "query_p99").Value; got != 0 {
		t.Fatalf("a window after the last observation read %d, want 0 (the base lags the %d observations)", got, workers*perWorker)
	}
}

// TestWatchdogCaptureRateLimit: a breach auto-captures exactly once
// within MinGap — a second rule breaching in the same tick (or a
// flapping rule re-breaching) is suppressed, not spooled.
func TestWatchdogCaptureRateLimit(t *testing.T) {
	reg := metrics.NewRegistry()
	rec, err := New(t.TempDir(), Sources{Registry: reg})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w := NewWatchdog(WatchdogOptions{Registry: reg, Recorder: rec})
	h1 := metrics.NewHistogram(metrics.DefaultLatencyBuckets)
	h2 := metrics.NewHistogram(metrics.DefaultLatencyBuckets)
	w.AddLatencyRule("query_p99", "us", 0.99, 1000, 1, h1)
	w.AddLatencyRule("fsync_p99", "us", 0.99, 1000, 1, h2)

	// Both rules breach in one tick: one capture, one suppression.
	var entered []string
	for i := 0; i < BreachAfter; i++ {
		h1.Observe(100_000)
		h2.Observe(100_000)
		entered = w.Tick()
	}
	if len(entered) != 2 {
		t.Fatalf("entered = %v, want both rules", entered)
	}
	if got := len(rec.Spool()); got != 1 {
		t.Fatalf("spool holds %d bundles after double breach, want 1", got)
	}

	// Clear, then re-breach within MinGap: still suppressed.
	for i := 0; i < ClearAfter; i++ {
		w.Tick()
	}
	if verdict(t, w.Health(), "query_p99").Breached {
		t.Fatal("idle windows did not clear the breach")
	}
	for i := 0; i < BreachAfter; i++ {
		h1.Observe(100_000)
		entered = w.Tick()
	}
	if len(entered) != 1 {
		t.Fatalf("re-breach entered = %v, want [query_p99]", entered)
	}
	if got := len(rec.Spool()); got != 1 {
		t.Fatalf("spool holds %d bundles after re-breach, want 1 (rate-limited)", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["flight.suppressed_total"] < 2 {
		t.Fatalf("suppressed_total = %d, want >= 2", snap.Counters["flight.suppressed_total"])
	}
	// Every tick sampled the registry into the rolling ring.
	if b := capture(t, rec); len(b.MetricRing) < 3 {
		t.Fatalf("metric ring holds %d samples, want >= 3", len(b.MetricRing))
	}
}

// TestWatchdogCounterAndProbeRules covers the two non-latency rule
// shapes: counter deltas per window and arbitrary probes.
func TestWatchdogCounterAndProbeRules(t *testing.T) {
	reg := metrics.NewRegistry()
	w := NewWatchdog(WatchdogOptions{Registry: reg})
	fails := reg.Counter("reload.failures_total")
	w.AddCounterRule("reload_failures", fails, 0)

	var stalled bool
	w.AddProbeRule("compact_overdue", "ms", 5000, func() (int64, bool) {
		if stalled {
			return 9999, true
		}
		return 0, false
	})

	w.Tick()
	if rep := w.Health(); rep.Status != "ok" {
		t.Fatalf("initial status = %s", rep.Status)
	}

	stalled = true
	for i := 0; i < BreachAfter; i++ {
		fails.Inc()
		w.Tick()
	}
	rep := w.Health()
	if v := verdict(t, rep, "reload_failures"); !v.Breached || v.Value != 1 {
		t.Fatalf("counter verdict = %+v", v)
	}
	if v := verdict(t, rep, "compact_overdue"); !v.Breached || v.Value != 9999 {
		t.Fatalf("probe verdict = %+v", v)
	}

	// No new failures in the next windows: the delta is 0, so it clears.
	stalled = false
	for i := 0; i < ClearAfter; i++ {
		w.Tick()
	}
	rep = w.Health()
	if v := verdict(t, rep, "reload_failures"); v.Breached || v.Value != 0 {
		t.Fatalf("counter rule did not clear: %+v", v)
	}
	if verdict(t, rep, "compact_overdue").Breached {
		t.Fatal("probe rule did not clear")
	}
}

// TestWatchdogStartStop: the background loop ticks on its own and
// stops cleanly (double Stop and stop-without-start included).
func TestWatchdogStartStop(t *testing.T) {
	w := NewWatchdog(WatchdogOptions{Window: 5 * time.Millisecond})
	w.Start()
	deadline := time.After(2 * time.Second)
	for w.Health().Ticks == 0 {
		select {
		case <-deadline:
			t.Fatal("loop never ticked")
		case <-time.After(time.Millisecond):
		}
	}
	w.Stop()
	w.Stop() // idempotent

	NewWatchdog(WatchdogOptions{}).Stop() // stop-without-start is safe
}
