package server

import (
	"sync"
	"time"

	"parapll/internal/metrics"
)

// SlowLog is a bounded in-memory log of the slowest-than-threshold
// requests, fed by the serving middleware and exposed at
// GET /debug/slow. A ring under a mutex: observing is O(1), the newest
// entries win, and memory is bounded no matter how bad a day the
// service is having.
type SlowLog struct {
	threshold time.Duration // <= 0 disables

	mu   sync.Mutex
	ring *metrics.Ring[SlowEntry]
}

// SlowEntry is one logged slow request.
type SlowEntry struct {
	// Time is when the request started.
	Time time.Time `json:"time"`
	// Method and Path identify the endpoint.
	Method string `json:"method"`
	Path   string `json:"path"`
	// Query is the raw query string ("" for body-carried requests).
	Query string `json:"query,omitempty"`
	// Status is the response status code.
	Status int `json:"status"`
	// DurationUS is the request's wall time in microseconds.
	DurationUS int64 `json:"duration_us"`
	// Generation is the snapshot generation the request was served from
	// (0 when the endpoint never touched a snapshot), so a slow entry can
	// be correlated with the reload that published the index it ran on.
	Generation uint64 `json:"generation,omitempty"`
	// Cache is "hit" or "miss" for distance lookups that consulted the
	// generation-keyed cache, "" for everything else — a slow *hit* means
	// the time went to the HTTP layer, a slow miss to the merge kernel.
	Cache string `json:"cache,omitempty"`
}

// Cache annotations carried from handler to middleware, as SlowEntry
// spells them.
const (
	cacheNone = "" // endpoint does not consult the distance cache
	cacheMiss = "miss"
	cacheHit  = "hit"
)

// NewSlowLog returns a log holding the most recent `capacity` slow
// requests; requests at or above `threshold` are recorded (<= 0
// disables).
func NewSlowLog(capacity int, threshold time.Duration) *SlowLog {
	return &SlowLog{threshold: threshold, ring: metrics.NewRing[SlowEntry](capacity)}
}

// Total returns how many slow requests were ever observed, including
// those the ring has since evicted.
func (l *SlowLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Total()
}

// Observe records the request if it was slow enough. The threshold
// check is one comparison, so the fast path costs nothing measurable.
// gen and cache are the handler's annotations (0 / cacheNone when the
// endpoint has none).
func (l *SlowLog) Observe(method, path, query string, status int, gen uint64, cache string, start time.Time, elapsed time.Duration) {
	if l.threshold <= 0 || elapsed < l.threshold {
		return
	}
	e := SlowEntry{
		Time:       start,
		Method:     method,
		Path:       path,
		Query:      query,
		Status:     status,
		DurationUS: elapsed.Microseconds(),
		Generation: gen,
		Cache:      cache,
	}
	l.mu.Lock()
	l.ring.Add(e)
	l.mu.Unlock()
}

// Entries returns the logged requests, newest first.
func (l *SlowLog) Entries() []SlowEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Newest()
}
