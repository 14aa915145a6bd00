package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (spans inside the program are a later
// change). The layer is the module name before the first dot of name.
type span struct {
	name       string
	start, end time.Duration // since the recorder's epoch
	parent     int           // index of the span that caused it, -1 for a root
	op         int           // spans of one operation share an id
	lane       int           // goroutine lane, for the timeline view
}

// recorder keeps spans in a slice until the run ends. It is safe for the
// reader and writer goroutines of the living probe to share.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newOp returns a fresh operation id.
func (r *recorder) newOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// opOf returns the operation id of span id.
func (r *recorder) opOf(id int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].op
}

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, op, lane int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), end: -1, parent: parent, op: op, lane: lane})
	return len(r.spans) - 1
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].end = now
	return now - r.spans[id].start
}

// add records a span that already happened, ending now: for durations a
// layer reports through a callback (the WAL's fsync observer).
func (r *recorder) add(name string, elapsed time.Duration, parent, op, lane int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, start: now - elapsed, end: now, parent: parent, op: op, lane: lane})
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns, per layer, the total of each span's duration minus
// the part of it that its child spans cover. Children may overlap one
// another (concurrent goroutines), so the covered part is the length of
// the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]time.Duration)
	for _, s := range spans {
		if s.parent >= 0 && s.end >= s.start {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		if s.end < s.start {
			continue // never ended: the run is aborting
		}
		out[layerOf(s.name)] += (s.end - s.start) - covered(children[i], s.start, s.end)
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeChrome writes the spans as Chrome trace-event JSON — the format
// `parapll-trace check` validates and chrome://tracing or Perfetto
// opens. Events are ordered by lane then start, which check requires.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		if s.end >= s.start {
			order = append(order, i)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := spans[order[a]], spans[order[b]]
		if x.lane != y.lane {
			return x.lane < y.lane
		}
		return x.start < y.start
	})
	events := make([]event, 0, len(order))
	for _, i := range order {
		s := spans[i]
		events = append(events, event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"op": s.op, "span": i, "parent": s.parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
