package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/metrics"
	"parapll/internal/qcache"
)

// routeDebug registers the operational endpoints.
func (s *Server) routeDebug() {
	s.handle("/healthz", http.MethodGet, 0, s.handleHealthz)
	s.handle("/metrics", http.MethodGet, 0, s.handleMetrics)
	s.handle("/debug/slow", http.MethodGet, 0, s.handleDebugSlow)
	s.handle("/debug/trace", http.MethodGet, 0, s.handleDebugTrace)
	s.handleSnap("/debug/explain", http.MethodGet, 0, s.handleDebugExplain)
	s.handle("/debug/health", http.MethodGet, 0, s.handleDebugHealth)
	s.handle("/debug/bundle", http.MethodGet, 0, s.handleDebugBundle)
}

// healthzReply is what encoding/json made of {"status":"ok"}.
var healthzReply = []byte("{\"status\":\"ok\"}\n")

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeReply(w, healthzReply)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if sn := label.Acquire(&s.snap); sn != nil {
		s.walStats(sn.up) // wal.*/compact.* gauges are scrape-time reads
		sn.release()
	}
	// Content negotiation: Prometheus scrapers ask for text/plain (the
	// exposition format); everything else keeps the JSON snapshot.
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") &&
		!strings.Contains(accept, "application/json") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		metrics.WritePrometheus(w, s.opt.Registry.Snapshot())
		return
	}
	writeJSON(w, http.StatusOK, s.opt.Registry.Snapshot())
}

// slowResponse is the /debug/slow reply.
type slowResponse struct {
	ThresholdUS int64 `json:"threshold_us"`
	// Total counts the slow requests the lane holds plus those it
	// wrapped over.
	Total   uint64      `json:"total"`
	Entries []slowEntry `json:"entries"` // newest first, at most slowCapacity
}

// slowEntry is one slow request's span, as /debug/slow lists it.
type slowEntry struct {
	Time       time.Time `json:"time"` // when the request started
	Path       string    `json:"path"`
	Status     int       `json:"status"`
	DurationUS int64     `json:"duration_us"`
	// Generation is the snapshot generation the request was served from
	// (0 when the endpoint never touched a snapshot), so a slow entry can
	// be correlated with the reload that published the index it ran on.
	Generation uint64 `json:"generation,omitempty"`
	// Cache is "hit" or "miss" for /query over the distance cache, ""
	// for everything else: a slow *hit* means the time went to the HTTP
	// layer, a slow miss to the merge kernel.
	Cache string `json:"cache,omitempty"`
	// S and T are the pair asked about on /query, /path and
	// /debug/explain, or the edge's u and v on an /update whose
	// vertices are in range.
	S *graph.Vertex `json:"s,omitempty"`
	T *graph.Vertex `json:"t,omitempty"`
}

// handleDebugSlow serves GET /debug/slow: the slow lane's request
// spans, newest first.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	evs := s.slowLane.Events()
	resp := slowResponse{
		ThresholdUS: s.opt.SlowThreshold.Microseconds(),
		Total:       uint64(len(evs)) + s.slowLane.Drops(),
		Entries:     make([]slowEntry, 0, min(len(evs), slowCapacity)),
	}
	for i := len(evs) - 1; i >= 0 && len(resp.Entries) < slowCapacity; i-- {
		ev := evs[i]
		e := slowEntry{
			Time:       s.opt.Tracer.Time(ev.Ts),
			Path:       "/" + strings.TrimPrefix(ev.Name, "http "),
			Status:     int(ev.Args[0]),
			DurationUS: ev.Dur / 1e3,
			Generation: ev.Args[1],
			Cache:      cacheNames[ev.Args[2]],
		}
		if ev.Args[3] != 0 {
			src, dst := unpackPair(ev.Args[3])
			e.S, e.T = &src, &dst
		}
		resp.Entries = append(resp.Entries, e)
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxCaptureSec bounds one /debug/trace live capture.
const maxCaptureSec = 60.0

// handleDebugTrace serves GET /debug/trace?sec=N: enable tracing (if it
// is not already on), record live traffic for N seconds on this
// request's goroutine, then stream the capture as Chrome trace-event
// JSON and restore the tracer's previous state. One capture at a time;
// a concurrent request gets 409.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	tr := s.opt.Tracer
	sec := 5.0
	if raw := queryParam(r.URL.RawQuery, "sec"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		// !(v > 0) instead of v <= 0: ParseFloat("nan", 64) succeeds, and
		// NaN compares false to everything — `v <= 0` would wave it
		// through into time.Duration(NaN * 1e9), an unbounded sleep.
		if err != nil || !(v > 0) || v > maxCaptureSec {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("bad sec %q (want 0 < sec <= %g)", raw, maxCaptureSec))
			return
		}
		sec = v
	}
	if !s.captureMu.TryLock() {
		writeErr(w, http.StatusConflict, errors.New("a live capture is already running"))
		return
	}
	defer s.captureMu.Unlock()
	wasEnabled := tr.Enabled()
	since := tr.Now()
	tr.Enable()
	time.Sleep(time.Duration(sec * float64(time.Second)))
	if !wasEnabled {
		tr.Disable()
	}
	data, err := tr.Capture(since)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// explainCache is the distance-cache section of an /debug/explain reply.
type explainCache struct {
	Hit bool `json:"hit"`
	// Dist is the cached answer when Hit (same encoding as /query). The
	// probe is a Peek: it never disturbs recency or hit/miss counters,
	// so explaining a pair does not perturb the cache it is explaining.
	Dist int64 `json:"dist,omitempty"`
}

// explainResponse is the /debug/explain reply: the kernel's own account
// of the lookup plus the serving context around it.
type explainResponse struct {
	label.Explain
	Dist       int64         `json:"dist"` // same encoding as /query (-1 unreachable)
	Generation uint64        `json:"generation"`
	Cache      *explainCache `json:"cache,omitempty"`
	Note       string        `json:"note,omitempty"`
}

// handleDebugExplain serves GET /debug/explain?s=A&t=B: the same lookup
// /query answers, but through the instrumented cold-path sibling of the
// lone-pair kernel — label lengths, head slots scanned, tail hubs
// probed, galloping vs. linear steps, the meeting hub, and the
// nanosecond cost, with the cache's
// view of the pair alongside. The hot kernel is never involved.
func (s *Server) handleDebugExplain(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	src, dst, ok := pairParams(sn, w, r)
	if !ok {
		return
	}
	resp := explainResponse{
		Explain:    sn.idx.QueryExplain(src, dst),
		Generation: sn.gen,
	}
	resp.Dist = encodeDist(resp.Explain.Dist)
	if c, ok := sn.ora.(*qcache.Cached); ok {
		ec := &explainCache{}
		if d, hit := c.Peek(src, dst); hit {
			ec.Hit = true
			ec.Dist = encodeDist(d)
		}
		resp.Cache = ec
	}
	if sn.up != nil {
		resp.Note = "living-graph mode: explain reflects the checkpoint index; " +
			"live queries go through the update pipeline and may differ"
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleDebugHealth serves GET /debug/health: every SLO rule's current
// verdict. 412 until cmd/parapll-server arms the watchdog (-slo-*).
func (s *Server) handleDebugHealth(w http.ResponseWriter, r *http.Request) {
	wd := s.opt.Watchdog
	if wd == nil {
		writeErr(w, http.StatusPreconditionFailed,
			errors.New("no watchdog configured (start the server with -slo-window-ms)"))
		return
	}
	writeJSON(w, http.StatusOK, wd.Health())
}

// handleDebugBundle serves GET /debug/bundle: trigger an on-demand
// flight capture (never rate-limited — a human asked) and stream the
// bundle back; the same bytes also land in the on-disk spool. 412 until
// cmd/parapll-server arms the recorder (-flight).
func (s *Server) handleDebugBundle(w http.ResponseWriter, r *http.Request) {
	rec := s.opt.Flight
	if rec == nil {
		writeErr(w, http.StatusPreconditionFailed,
			errors.New("no flight recorder configured (start the server with -flight)"))
		return
	}
	path, err := rec.Trigger("http")
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Flight-Bundle", filepath.Base(path))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}
