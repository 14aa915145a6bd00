package flight

import (
	"sync"
	"time"

	"parapll/internal/metrics"
)

// watchdog.go closes the observability loop: the metrics exist, the
// recorder can capture — the watchdog decides *when*. Every Window it
// ticks: each rule evaluates what happened since the previous tick (a
// latency rule the quantile of its histograms' bucket growth, a counter
// rule its counter's growth), and verdicts move through a hysteresis
// state machine (BreachAfter consecutive bad windows to alarm,
// ClearAfter consecutive good ones to stand down) so a single noisy
// window can neither fire an alarm nor silence one. Entering breach
// publishes a verdict gauge flip on /metrics and triggers a
// rate-limited flight-recorder capture, so the evidence for "why was
// p99 bad at 04:13" is on disk before anyone is paged.

// WatchdogOptions configures the evaluation loop.
type WatchdogOptions struct {
	// Window is the evaluation period. Default 10s.
	Window time.Duration
	// Registry, when non-nil, receives per-rule verdict gauges:
	// slo.breach.<rule> (0/1) and slo.value.<rule> (last evaluation).
	Registry *metrics.Registry
	// Recorder, when non-nil, gets a rate-limited TriggerAuto on every
	// ok→breach transition, plus a SampleMetrics every tick.
	Recorder *Recorder
	// Logf, when non-nil, receives breach/clear transition lines.
	Logf func(format string, args ...any)
}

func (o *WatchdogOptions) withDefaults() WatchdogOptions {
	out := *o
	if out.Window <= 0 {
		out.Window = 10 * time.Second
	}
	if out.Logf == nil {
		out.Logf = func(string, ...any) {}
	}
	return out
}

// The hysteresis of every rule.
const (
	// BreachAfter is how many consecutive bad windows enter a breach.
	BreachAfter = 2
	// ClearAfter is how many consecutive good windows clear one.
	ClearAfter = 3
)

// rule is one SLO rule: evaluate extracts the window's value and says
// whether it is bad. AddLatencyRule and AddCounterRule build the
// closure over what they diff between ticks; AddProbeRule takes it as
// given. Every evaluate runs under Watchdog.mu, one tick at a time.
type rule struct {
	name      string
	unit      string
	threshold int64
	evaluate  func() (value int64, bad bool)

	// state machine
	breached   bool
	badStreak  int
	goodStreak int
	breaches   uint64
	value      int64
	sinceNano  int64 // last transition

	breachGauge *metrics.Gauge
	valueGauge  *metrics.Gauge
}

// Verdict is one rule's externally visible state (/debug/health).
type Verdict struct {
	Name          string `json:"name"`
	Unit          string `json:"unit"`
	Breached      bool   `json:"breached"`
	Value         int64  `json:"value"`
	Threshold     int64  `json:"threshold"`
	BreachesTotal uint64 `json:"breaches_total"`
	BadStreak     int    `json:"bad_streak"`
	GoodStreak    int    `json:"good_streak"`
	// SinceUnixNano is the time of the last state transition (0 before
	// the first one).
	SinceUnixNano int64 `json:"since_unix_nano,omitempty"`
}

// HealthReport is the /debug/health payload.
type HealthReport struct {
	// Status is "ok" when no rule is in breach, else "breach".
	Status   string    `json:"status"`
	WindowMS int64     `json:"window_ms"`
	Ticks    int64     `json:"ticks"`
	Verdicts []Verdict `json:"verdicts"`
}

// Watchdog evaluates SLO rules on a fixed cadence. Add rules before
// Start; Tick is exported so tests (and the loop) drive evaluation
// explicitly.
type Watchdog struct {
	opt WatchdogOptions

	mu    sync.Mutex
	rules []*rule
	ticks int64

	startOnce sync.Once
	stopOnce  sync.Once
	stopC     chan struct{}
	doneC     chan struct{}
}

// NewWatchdog builds an empty watchdog.
func NewWatchdog(opt WatchdogOptions) *Watchdog {
	return &Watchdog{
		opt:   opt.withDefaults(),
		stopC: make(chan struct{}),
		doneC: make(chan struct{}),
	}
}

func (w *Watchdog) addRule(r *rule) {
	if w.opt.Registry != nil {
		r.breachGauge = w.opt.Registry.Gauge("slo.breach." + r.name)
		r.valueGauge = w.opt.Registry.Gauge("slo.value." + r.name)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.rules = append(w.rules, r)
}

// AddLatencyRule watches quantile q of what the cumulative histograms
// hs, summed bucket by bucket, gained in one window: bad when the
// window added at least minCount observations and their quantile
// exceeds threshold (in the histograms' own unit). hs must share their
// bounds; the first window counts from this call.
func (w *Watchdog) AddLatencyRule(name, unit string, q float64, threshold, minCount int64, hs ...*metrics.Histogram) {
	if minCount < 1 {
		minCount = 1
	}
	last := sumHistograms(hs)
	w.addRule(&rule{name: name, unit: unit, threshold: threshold, evaluate: func() (int64, bool) {
		// Every bucket only grows, so each difference is what the window
		// added; the buckets, not Count, make the total, since a snapshot
		// may tear between the two.
		cur := sumHistograms(hs)
		win := metrics.HistogramSnapshot{Buckets: make([]metrics.Bucket, len(cur.Buckets))}
		var n int64
		for i, b := range cur.Buckets {
			b.Count -= last.Buckets[i].Count
			win.Buckets[i] = b
			n += b.Count
		}
		last = cur
		if n < minCount {
			// Too little traffic to judge: counts as healthy — absence of
			// load is not an SLO breach, and a breached rule drains its
			// streak so an idle system stands down.
			return 0, false
		}
		v := win.Quantile(q)
		return v, v > threshold
	}})
}

// sumHistograms snapshots hs and adds their buckets position by
// position.
func sumHistograms(hs []*metrics.Histogram) metrics.HistogramSnapshot {
	sum := hs[0].Snapshot()
	for _, h := range hs[1:] {
		for i, b := range h.Snapshot().Buckets {
			sum.Buckets[i].Count += b.Count
		}
	}
	return sum
}

// AddCounterRule watches a cumulative counter's per-window delta: bad
// when more than maxPerWindow increments land in one window (0 means
// any increment breaches — the reload-failure shape).
func (w *Watchdog) AddCounterRule(name string, c *metrics.Counter, maxPerWindow int64) {
	last := c.Value()
	w.addRule(&rule{name: name, unit: "count", threshold: maxPerWindow, evaluate: func() (int64, bool) {
		cur := c.Value()
		delta := cur - last
		last = cur
		return delta, delta > maxPerWindow
	}})
}

// AddProbeRule evaluates an arbitrary callback each window — the shape
// for conditions that are state, not a stream (a compaction running
// past its deadline). threshold is informational for the verdict.
func (w *Watchdog) AddProbeRule(name, unit string, threshold int64, probe func() (value int64, bad bool)) {
	w.addRule(&rule{name: name, unit: unit, threshold: threshold, evaluate: probe})
}

// Tick runs one evaluation round and returns the names of rules that
// *entered* breach this round. The loop calls it every Window; tests
// call it directly.
func (w *Watchdog) Tick() []string {
	now := time.Now().UnixNano()
	w.mu.Lock()
	w.ticks++
	var entered []string
	for _, r := range w.rules {
		value, bad := r.evaluate()
		r.value = value
		if r.valueGauge != nil {
			r.valueGauge.Set(value)
		}
		if bad {
			r.badStreak++
			r.goodStreak = 0
		} else {
			r.goodStreak++
			r.badStreak = 0
		}
		switch {
		case !r.breached && r.badStreak >= BreachAfter:
			r.breached = true
			r.breaches++
			r.sinceNano = now
			if r.breachGauge != nil {
				r.breachGauge.Set(1)
			}
			entered = append(entered, r.name)
			w.opt.Logf("flight: SLO breach: %s = %d %s (threshold %d)", r.name, value, r.unit, r.threshold)
		case r.breached && r.goodStreak >= ClearAfter:
			r.breached = false
			r.sinceNano = now
			if r.breachGauge != nil {
				r.breachGauge.Set(0)
			}
			w.opt.Logf("flight: SLO cleared: %s = %d %s", r.name, value, r.unit)
		}
	}
	w.mu.Unlock()

	// Captures happen outside w.mu: the recorder snapshots Health(),
	// which takes w.mu again (see the package lock-order note).
	if rec := w.opt.Recorder; rec != nil {
		rec.SampleMetrics()
		for _, name := range entered {
			if path, ok, err := rec.TriggerAuto("slo-" + name); err != nil {
				w.opt.Logf("flight: capture for %s failed: %v", name, err)
			} else if ok {
				w.opt.Logf("flight: captured %s", path)
			}
		}
	}
	return entered
}

// Health snapshots every rule's verdict.
func (w *Watchdog) Health() HealthReport {
	w.mu.Lock()
	defer w.mu.Unlock()
	rep := HealthReport{
		Status:   "ok",
		WindowMS: w.opt.Window.Milliseconds(),
		Ticks:    w.ticks,
		Verdicts: make([]Verdict, 0, len(w.rules)),
	}
	for _, r := range w.rules {
		if r.breached {
			rep.Status = "breach"
		}
		rep.Verdicts = append(rep.Verdicts, Verdict{
			Name: r.name, Unit: r.unit, Breached: r.breached,
			Value: r.value, Threshold: r.threshold,
			BreachesTotal: r.breaches,
			BadStreak:     r.badStreak, GoodStreak: r.goodStreak,
			SinceUnixNano: r.sinceNano,
		})
	}
	return rep
}

// Start launches the tick loop. Safe to call once; Stop ends it.
func (w *Watchdog) Start() {
	w.startOnce.Do(func() {
		go func() {
			defer close(w.doneC)
			tick := time.NewTicker(w.opt.Window)
			defer tick.Stop()
			for {
				select {
				case <-w.stopC:
					return
				case <-tick.C:
					w.Tick()
				}
			}
		}()
	})
}

// Stop ends the tick loop and waits for it. Stopping a never-started
// watchdog is safe: claiming startOnce here closes doneC directly (and
// is a no-op when the loop owns it).
func (w *Watchdog) Stop() {
	w.stopOnce.Do(func() { close(w.stopC) })
	w.startOnce.Do(func() { close(w.doneC) })
	<-w.doneC
}
