// Package flight is the serving system's self-diagnosis subsystem: a
// flight recorder that continuously holds the recent past (trace
// events in the PR 5 seqlock ring, rolling metric samples, recent
// errors) and, at the moment something goes wrong, freezes all of it
// into one self-contained on-disk bundle — plus an anomaly watchdog
// (watchdog.go) that decides *when* something is wrong from windowed
// SLO verdicts and triggers those captures automatically.
//
// The design inverts the usual debugging flow. Production anomalies
// are transient: by the time an operator attaches, the slow window is
// over and the evidence is gone. The recorder is therefore always on
// and cheap (the tracer ring and metric instruments already exist;
// the recorder only adds two metrics.Ring values, of recent errors and
// of metric samples), and a capture is a read-mostly snapshot: merge
// the trace ring's last TraceWindow, snapshot the metrics registry,
// copy the error and metric-sample rings, collect goroutine/heap
// profiles and the serving/WAL state the sources expose, and write one
// JSON file to a bounded spool (MaxBundles, at most one automatic
// capture per MinGap). Bundles
// are self-contained — `parapll-trace check` validates the embedded
// trace without the process that wrote it.
//
// Lock order: Recorder.mu is held across a capture, which may call
// the Health/Stats source closures; those may take the watchdog's
// or server's internal locks. Nothing takes Recorder.mu while holding
// those locks (the watchdog triggers captures only after releasing its
// own mutex), so the order recorder → watchdog/server is acyclic.
package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"parapll/internal/metrics"
	"parapll/internal/trace"
)

// Sources are the read-only views a Recorder snapshots into a bundle.
// Every field is optional; closures must be safe to call from any
// goroutine and should return quickly. They are closures (not
// interfaces on the server) so flight has no dependency on the serving
// layer and each subsystem plugs in exactly the state it owns.
type Sources struct {
	// Tracer is the live tracer (nil when tracing is off); the bundle
	// embeds the ring's last TraceWindow of events while it is enabled.
	Tracer *trace.Tracer
	// Registry is snapshotted into the bundle and sampled into the
	// rolling metric ring.
	Registry *metrics.Registry
	// Stats returns the serving layer's /stats payload, which carries
	// the WAL and compaction state in living-graph mode.
	Stats func() any
	// Health returns the watchdog's verdict report.
	Health func() any
}

// The bounds of the Recorder's memory and disk footprint.
const (
	// MaxBundles caps the spool; the oldest bundle is deleted when a new
	// one would exceed it.
	MaxBundles = 8
	// MinGap rate-limits automatic captures (TriggerAuto): a trigger
	// closer than MinGap to the previous *auto* capture is suppressed.
	// Manual Trigger calls (an operator hitting /debug/bundle) are never
	// suppressed.
	MinGap = 30 * time.Second
	// TraceWindow is how far back the embedded trace capture reaches.
	TraceWindow = 30 * time.Second
)

// maxErrors caps the recent-error ring and maxSamples the rolling
// metric-sample ring.
const (
	maxErrors  = 64
	maxSamples = 32
)

// ErrorRecord is one recent error held in the recorder's ring.
type ErrorRecord struct {
	UnixNano int64  `json:"unix_nano"`
	Source   string `json:"source"` // subsystem, e.g. "reload", "panic:/query"
	Error    string `json:"error"`
}

// MetricSample is one rolling snapshot of counters and gauges; diffing
// successive samples recovers rates around the capture moment without
// a scraper in the loop.
type MetricSample struct {
	UnixNano int64            `json:"unix_nano"`
	Counters map[string]int64 `json:"counters"`
	Gauges   map[string]int64 `json:"gauges"`
}

// BundleMeta identifies one capture.
type BundleMeta struct {
	Reason           string `json:"reason"`
	UnixNano         int64  `json:"unix_nano"`
	Time             string `json:"time"` // RFC3339Nano, for humans
	Seq              uint64 `json:"seq"`  // per-process capture number
	PID              int    `json:"pid"`
	GoVersion        string `json:"go_version"`
	TraceWindowNanos int64  `json:"trace_window_nanos"`
}

// Bundle is the self-contained capture artifact, serialized as one
// JSON object. Trace holds a complete Chrome trace-event capture (the
// exact bytes trace.Capture produced), so tooling can validate or view
// it without understanding the rest of the bundle.
type Bundle struct {
	Meta       BundleMeta      `json:"meta"`
	Trace      json.RawMessage `json:"trace,omitempty"`
	TraceError string          `json:"trace_error,omitempty"`
	Metrics    any             `json:"metrics,omitempty"`
	MetricRing []MetricSample  `json:"metric_ring,omitempty"`
	Errors     []ErrorRecord   `json:"errors"`
	Stats      any             `json:"stats,omitempty"`
	Health     any             `json:"health,omitempty"`
	Goroutines string          `json:"goroutine_profile,omitempty"`
	Heap       string          `json:"heap_profile,omitempty"`
}

// ParseBundle decodes a bundle file's bytes. Stats/Health/Metrics
// decode as generic JSON values; Trace keeps its raw bytes for
// trace.CheckCapture.
func ParseBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("flight: parsing bundle: %w", err)
	}
	if b.Meta.Reason == "" && b.Meta.Seq == 0 && b.Trace == nil {
		return nil, fmt.Errorf("flight: not a flight bundle (no meta or trace)")
	}
	return &b, nil
}

// Recorder is the always-on evidence collector. All methods are safe
// for concurrent use.
type Recorder struct {
	dir string
	src Sources

	mu       sync.Mutex
	errs     *metrics.Ring[ErrorRecord]
	samples  *metrics.Ring[MetricSample]
	seq      uint64
	lastAuto time.Time

	captures   *metrics.Counter // flight.captures_total
	suppressed *metrics.Counter // flight.suppressed_total
}

// New builds a Recorder spooling into dir, creating the directory if
// needed. When src.Registry is non-nil the recorder also publishes
// flight.captures_total / flight.suppressed_total counters there.
func New(dir string, src Sources) (*Recorder, error) {
	if dir == "" {
		return nil, fmt.Errorf("flight: a spool directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: creating spool %s: %w", dir, err)
	}
	r := &Recorder{
		dir:     dir,
		src:     src,
		errs:    metrics.NewRing[ErrorRecord](maxErrors),
		samples: metrics.NewRing[MetricSample](maxSamples),
	}
	if src.Registry != nil {
		r.captures = src.Registry.Counter("flight.captures_total")
		r.suppressed = src.Registry.Counter("flight.suppressed_total")
	}
	return r, nil
}

// RecordError adds one error to the bounded recent-error ring.
func (r *Recorder) RecordError(source string, err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recordErrorLocked(source, err.Error())
}

func (r *Recorder) recordErrorLocked(source, msg string) {
	r.errs.Add(ErrorRecord{UnixNano: time.Now().UnixNano(), Source: source, Error: msg})
}

// SampleMetrics appends one rolling counter/gauge sample to the ring
// (a no-op without a Registry). The watchdog calls this every window
// tick, so a bundle carries rate context from before the anomaly.
func (r *Recorder) SampleMetrics() {
	if r.src.Registry == nil {
		return
	}
	snap := r.src.Registry.Snapshot()
	s := MetricSample{UnixNano: time.Now().UnixNano(), Counters: snap.Counters, Gauges: snap.Gauges}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples.Add(s)
}

// Trigger captures a bundle unconditionally (operator-initiated:
// /debug/bundle, SIGQUIT). It returns the spool path written.
func (r *Recorder) Trigger(reason string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.captureLocked(reason)
}

// TriggerAuto captures a bundle unless a previous automatic capture
// happened within MinGap — the watchdog's entry point, rate-limited so
// a flapping or multi-rule breach cannot flood the spool. ok=false
// means the trigger was suppressed.
func (r *Recorder) TriggerAuto(reason string) (path string, ok bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	if !r.lastAuto.IsZero() && now.Sub(r.lastAuto) < MinGap {
		if r.suppressed != nil {
			r.suppressed.Inc()
		}
		return "", false, nil
	}
	r.lastAuto = now
	p, err := r.captureLocked(reason)
	return p, err == nil, err
}

// TriggerPanic captures a bundle for a recovered panic, bypassing the
// rate limit (a panic is always worth evidence) but still serialized
// with other captures.
func (r *Recorder) TriggerPanic(source string, p any) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	// The panic itself is the newest entry in the bundle's error ring.
	r.recordErrorLocked(source, fmt.Sprint(p))
	return r.captureLocked("panic:" + source + ": " + fmt.Sprint(p))
}

func (r *Recorder) buildLocked(reason string) *Bundle {
	now := time.Now()
	b := &Bundle{
		Meta: BundleMeta{
			Reason:           reason,
			UnixNano:         now.UnixNano(),
			Time:             now.Format(time.RFC3339Nano),
			Seq:              r.seq,
			PID:              os.Getpid(),
			GoVersion:        runtime.Version(),
			TraceWindowNanos: TraceWindow.Nanoseconds(),
		},
		MetricRing: r.samples.Oldest(),
		Errors:     r.errs.Oldest(),
	}
	if tr := r.src.Tracer; tr.Enabled() {
		since := tr.Now() - TraceWindow.Nanoseconds()
		if data, err := tr.Capture(since); err == nil {
			b.Trace = data
		} else {
			b.TraceError = err.Error()
		}
	}
	if r.src.Registry != nil {
		b.Metrics = r.src.Registry.Snapshot()
	}
	if r.src.Stats != nil {
		b.Stats = r.src.Stats()
	}
	if r.src.Health != nil {
		b.Health = r.src.Health()
	}
	b.Goroutines = profileText("goroutine", 2)
	b.Heap = profileText("heap", 1)
	return b
}

// captureLocked builds, writes and prunes under r.mu.
func (r *Recorder) captureLocked(reason string) (string, error) {
	r.seq++
	b := r.buildLocked(reason)
	data, err := json.Marshal(b)
	if err != nil {
		return "", fmt.Errorf("flight: encoding bundle: %w", err)
	}
	// Unix-nano prefix makes lexical order chronological across process
	// restarts, so pruning can sort names instead of stat-ing.
	name := fmt.Sprintf("bundle-%020d-%04d-%s.json", b.Meta.UnixNano, b.Meta.Seq, sanitizeReason(reason))
	path := filepath.Join(r.dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("flight: writing bundle: %w", err)
	}
	if r.captures != nil {
		r.captures.Inc()
	}
	r.pruneLocked()
	return path, nil
}

// pruneLocked deletes the oldest bundles beyond MaxBundles. Removal
// errors are ignored: a capture must not fail because a concurrent
// operator deleted a spool file first.
func (r *Recorder) pruneLocked() {
	names := spoolNames(r.dir)
	for len(names) > MaxBundles {
		os.Remove(filepath.Join(r.dir, names[0]))
		names = names[1:]
	}
}

// spoolNames returns the spool's bundle file names in lexical
// (chronological) order.
func spoolNames(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") && strings.HasSuffix(e.Name(), ".json") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// sanitizeReason maps a free-form reason onto a safe filename chunk.
func sanitizeReason(reason string) string {
	const maxLen = 48
	var b strings.Builder
	for _, c := range reason {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
		if b.Len() >= maxLen {
			break
		}
	}
	if b.Len() == 0 {
		return "manual"
	}
	return b.String()
}

// profileText renders a runtime/pprof profile in its debug text form.
func profileText(name string, debug int) string {
	p := pprof.Lookup(name)
	if p == nil {
		return ""
	}
	var buf bytes.Buffer
	if err := p.WriteTo(&buf, debug); err != nil {
		return "profile error: " + err.Error()
	}
	return buf.String()
}
