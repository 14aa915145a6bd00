// Package server exposes a built index as an HTTP JSON service — the
// "module for context-aware or social-aware search" deployment shape the
// paper's introduction describes, where other services need distance
// answers with real-time latency budgets.
//
// Endpoints:
//
//	GET  /query?s=A&t=B   → {"s":A,"t":B,"dist":D,"reachable":true}
//	POST /batch           ← {"pairs":[[s,t],...]} and nothing else: one
//	                        member, pairs of two non-negative integers,
//	                        at most 100 000 of them in at most 8 MiB
//	                      → {"dists":[...]} (-1 encodes unreachable)
//	GET  /path?s=A&t=B    → {"path":[...],"dist":D} (404 without the
//	                        graph beside the index)
//	GET  /stats           → index size statistics + generation/format
//	POST /update          ← {"u":A,"v":B,"w":W}, all three and nothing
//	                        else
//	                      → durably inserts an edge when the published
//	                        snapshot is living (-wal); 412 otherwise
//	POST /reload          ← optional {"path":"other.idx"}
//	                      → swaps in a freshly loaded index (409 if a
//	                        reload is already running, or if a living
//	                        server is asked for another file; see Reload)
//	GET  /readyz          → 200 once an index is published, 503 while
//	                        the initial load/build is still running and,
//	                        with -wal, once the log has failed (reads are
//	                        still served; the reply says why)
//	GET  /healthz         → {"status":"ok"} liveness probe
//	GET  /metrics         → metrics.Snapshot JSON: per-endpoint request
//	                        and error counts, latency histograms, and an
//	                        in-flight gauge
//	GET  /debug/slow      → the slow-request lane: requests at or over
//	                        SlowThreshold, newest first
//	GET  /debug/trace     → a live capture of every lane for ?sec=N
//	GET  /debug/explain, /debug/health, /debug/bundle
//	                      → diagnostics (debug.go)
//
// # One record per request
//
// The request span is the server's only per-request record. A request
// at or over SlowThreshold writes its span to the slow lane
// (trace.TIDSlow) whether or not the tracer is enabled, and /debug/slow
// reads that lane; any other request writes one to the request lane
// (trace.TIDRequest) when the tracer samples it. handle is the one
// caller of Tracer.Sample, so 1 in N requests leaves a span whatever
// the route: the distance cache and the living-graph pipeline record no
// per-request span of their own. A span's four args are the status,
// the snapshot generation, the distance-cache outcome and the (s, t)
// pair on the pair routes, or the edge (u, v) on /update.
//
// Every endpoint enforces its method (405 otherwise) and is wrapped in
// the same instrumentation middleware, so /metrics always reflects the
// full request stream, including rejected requests.
//
// /query and /batch are decoded and encoded by the codec in wire.go, not
// by reflection; every other endpoint and every error reply goes through
// encoding/json (DESIGN.md "Request path").
//
// # Snapshot model
//
// The serving state — index, the optional graph it indexes, generation
// counter, source path — lives in one immutable snapshot behind an
// atomic pointer. A request takes a reference on the snapshot once
// (label.Acquire) and runs entirely against it; Reload builds the next
// snapshot off the request path and publishes it with a single atomic
// swap. In-flight queries finish on the snapshot they started with. The
// server owns every index it publishes: a snapshot counts its requests
// plus the server's own reference, which the next publish drops, and
// the last to go closes the index, unmapping a mapped one.
//
// # Living-graph mode
//
// A snapshot published by PublishLive (the -wal serving mode) carries an
// Updater, and its query surface is that updatable pipeline instead of
// the immutable index: distances then mutate WITHIN a generation as
// edges arrive, so the generation-keyed distance cache is deliberately
// bypassed — a cached answer could overestimate a pair an insert just
// shortened. The index beside it is the checkpoint artifact behind
// /stats and /debug/explain. A background compaction rolls the next
// checkpoint in through Reload of the same file, which carries the
// updater forward into the new generation; a reload of any other file
// is refused (ErrLiveReload), since an index of another graph beside the
// pipeline would answer /stats and explain from the wrong graph.
// /update, /readyz, /stats and /metrics read the updater from the
// snapshot they loaded, so before the first publish /update answers 503
// like every other snapshot endpoint.
//
// Configuration is fixed at construction (Options); the only setter,
// SetCacheEntries, must run before the first Publish.
//
// # Files
//
// server.go holds the constructor and the request wrapper every route
// goes through (handle); snapshot.go the snapshot lifecycle, /reload and
// /readyz; query.go /query, /batch, /path and /stats, beside their codec
// in wire.go; update.go the living graph's /update; debug.go /metrics,
// /healthz and /debug/*. Each file registers its own routes.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parapll/internal/flight"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/metrics"
	"parapll/internal/qcache"
	"parapll/internal/trace"
)

// Options configures a Server. NewPending reads it once; nothing
// changes it afterwards. Every field is optional.
type Options struct {
	// Registry records the server's metrics (nil: a registry of its
	// own), so the embedding process can share one with what else it
	// instruments.
	Registry *metrics.Registry
	// Loader loads index files for Reload (nil: Reload answers
	// ErrNoLoader).
	Loader Loader
	// BatchThreads caps the fan-out of one /batch request, so a single
	// large batch cannot monopolize every core against other requests
	// (<= 0: min(4, GOMAXPROCS)).
	BatchThreads int
	// SlowThreshold is the wall time at or above which a request's span
	// goes to the slow lane /debug/slow lists (0: 100 ms; negative: no
	// request is slow).
	SlowThreshold time.Duration
	// Tracer records the request spans and is what /debug/trace
	// captures (nil: a disabled tracer of slowCapacity slots a lane,
	// which holds the slow lane until a capture enables it).
	Tracer *trace.Tracer
	// Flight is the recorder behind /debug/bundle, which also dumps a
	// bundle when a handler panics (nil: /debug/bundle answers 412).
	Flight *flight.Recorder
	// Watchdog is the verdict source behind /debug/health; its owner
	// starts and stops it (nil: /debug/health answers 412). Its latency
	// rules can read the Registry's http.latency_us.<endpoint>
	// histograms, which every request feeds.
	Watchdog *flight.Watchdog
}

// Server answers distance queries over HTTP from an atomically swappable
// index snapshot.
type Server struct {
	opt      Options // as NewPending was given it, Registry, BatchThreads and Tracer filled in
	snap     atomic.Pointer[snapshot]
	gen      atomic.Uint64
	reloadMu sync.Mutex // held for the duration of one reload

	mux        *http.ServeMux
	inflight   *metrics.Gauge
	generation *metrics.Gauge

	// cache, when non-nil, fronts every static snapshot published after
	// SetCacheEntries with a generation-keyed distance cache; entries
	// from a pre-reload generation can never answer post-reload queries.
	cache *qcache.Cache

	// The two lanes of request spans (see the package doc), resolved
	// once in NewPending.
	requestLane, slowLane *trace.Buf
	captureMu             sync.Mutex // serializes /debug/trace live captures

	// Test hooks, nil in production: afterStore runs right after publish
	// stores a snapshot, afterLoad right after handleSnap acquires one. A
	// test publishes from them, inside the window in which a second load
	// of s.snap would see another generation, and in which a reference
	// dropped early would let the swap close the request's index.
	afterStore, afterLoad func(sn *snapshot)

	// reloadFailures counts failed reloads (HTTP and SIGHUP alike) — the
	// watchdog's reload-failure rule watches its per-window delta.
	reloadFailures *metrics.Counter
	panics         *metrics.Counter
}

const (
	// slowCapacity is the lane size of the tracer the server makes when
	// Options has none, and the most entries /debug/slow lists.
	slowCapacity         = 256
	defaultSlowThreshold = 100 * time.Millisecond
)

// NewPending builds a handler configured by o (nil: every default) with
// no index yet: /readyz (and every snapshot endpoint) answers 503 until
// Publish or PublishLive installs the first snapshot. This lets the
// listener come up immediately while the index loads or builds in the
// background, so orchestrators can probe readiness instead of timing
// out on connect.
func NewPending(o *Options) *Server {
	s := &Server{mux: http.NewServeMux()}
	if o != nil {
		s.opt = *o
	}
	if s.opt.Registry == nil {
		s.opt.Registry = metrics.NewRegistry()
	}
	if s.opt.BatchThreads <= 0 {
		// Up to 4 goroutines, never more than the machine has: a 2-core
		// box should not timeslice 4 batch workers against its handlers.
		s.opt.BatchThreads = min(4, runtime.GOMAXPROCS(0))
	}
	if s.opt.SlowThreshold == 0 {
		s.opt.SlowThreshold = defaultSlowThreshold
	}
	if s.opt.Tracer == nil {
		s.opt.Tracer = trace.New(0, slowCapacity)
	}
	tr := s.opt.Tracer
	tr.SetProcessName("parapll-server")
	tr.SetThreadName(trace.TIDCompact, "compactor")
	tr.SetThreadName(trace.TIDRequest, "http requests")
	tr.SetThreadName(trace.TIDSlow, "http slow")
	s.requestLane, s.slowLane = tr.Buf(trace.TIDRequest), tr.Buf(trace.TIDSlow)
	reg := s.opt.Registry
	s.inflight = reg.Gauge("http.inflight")
	s.generation = reg.Gauge("index.generation")
	s.reloadFailures = reg.Counter("reload.failures_total")
	s.panics = reg.Counter("http.panics_total")
	s.routeQueries()
	s.routeSnapshots()
	s.routeUpdate()
	s.routeDebug()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter remembers the first status code a handler wrote so the
// middleware can count errors without re-deriving them per handler,
// plus the handler's notes for the request span: the snapshot
// generation the request was served from, the distance-cache outcome
// and the pair asked about.
type statusWriter struct {
	http.ResponseWriter
	status int
	gen    uint64
	cache  uint64 // cacheNone / cacheMiss / cacheHit
	pair   uint64 // packPair(s, t), or the /update edge; 0 elsewhere
}

// Distance-cache outcomes, as the request span's cache arg holds them
// and cacheNames spells them.
const (
	cacheNone = iota // the endpoint does not consult the distance cache
	cacheMiss
	cacheHit
)

var cacheNames = [...]string{cacheNone: "", cacheMiss: "miss", cacheHit: "hit"}

// packPair is the request span's pair arg: s and t in the low 62 bits,
// bit 63 set so that pair (0, 0) is told from no pair.
func packPair(src, dst graph.Vertex) uint64 {
	return 1<<63 | uint64(src)<<32 | uint64(dst)
}

// unpackPair inverts packPair.
func unpackPair(p uint64) (src, dst graph.Vertex) {
	return graph.Vertex(p >> 32 & 0x7fffffff), graph.Vertex(p & 0xffffffff)
}

// statusWriters recycles the middleware's wrapper: a handler is done
// with its ResponseWriter when it returns, so the next request can have
// the same one.
var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

// note returns where a handler notes its request span's args: the
// middleware's statusWriter behind w, or a scratch one when w is
// anything else (a bare ResponseWriter in a unit test).
func note(w http.ResponseWriter) *statusWriter {
	if sw, ok := w.(*statusWriter); ok {
		return sw
	}
	return new(statusWriter)
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

// handle registers h at path behind the shared middleware: a method
// guard (the same 405 on every endpoint), a body limit of limit bytes
// when limit > 0 (a handler reading past it gets an *http.MaxBytesError,
// which writeBodyErr turns into the 413), plus per-endpoint request and
// error counters and a latency histogram, all resolved once here so the
// request path touches only atomics. The same wall-clock measurement
// times the request span: on the slow lane when the request took
// SlowThreshold or more, else on the request lane when the tracer
// samples it.
func (s *Server) handle(path, method string, limit int64, h http.HandlerFunc) {
	name := strings.TrimPrefix(path, "/")
	requests := s.opt.Registry.Counter("http.requests." + name)
	errorsC := s.opt.Registry.Counter("http.errors." + name)
	latency := s.opt.Registry.Histogram("http.latency_us."+name, metrics.DefaultLatencyBuckets)
	spanName := "http " + name
	tr := s.opt.Tracer
	span := tr.Intern(spanName, "status", "generation", "cache", "pair")
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		s.inflight.Inc()
		sw := statusWriters.Get().(*statusWriter)
		*sw = statusWriter{ResponseWriter: w}
		start := time.Now()
		if r.Method != method {
			writeErr(sw, http.StatusMethodNotAllowed, fmt.Errorf("%s only", method))
		} else {
			if limit > 0 {
				r.Body = http.MaxBytesReader(sw, r.Body, limit)
			}
			s.invoke(h, sw, r, spanName)
		}
		elapsed := time.Since(start)
		s.inflight.Dec() // not deferred: invoke lets no handler panic through
		latency.Observe(elapsed.Microseconds())
		status, gen, cache, pair := sw.status, sw.gen, sw.cache, sw.pair
		sw.ResponseWriter = nil
		statusWriters.Put(sw)
		if status >= 400 {
			errorsC.Inc()
		}
		if status == 0 {
			status = http.StatusOK // handler wrote the body without WriteHeader
		}
		t1 := tr.At(start)
		if slow := s.opt.SlowThreshold; slow > 0 && elapsed >= slow {
			s.slowLane.SpanAlways(span, t1, t1+elapsed.Nanoseconds(), uint64(status), gen, cache, pair)
		} else if tr.Sample() {
			s.requestLane.Span(span, t1, t1+elapsed.Nanoseconds(), uint64(status), gen, cache, pair)
		}
	})
}

// invoke runs one handler behind a panic barrier: a panicking handler
// must not take the process (and every in-flight request) with it, but
// the evidence must survive — the flight recorder dumps a bundle (panic
// captures bypass the auto-trigger rate limit) before the 500 goes out,
// and the rest of the middleware still records latency and the error
// count for the request.
func (s *Server) invoke(h http.HandlerFunc, sw *statusWriter, r *http.Request, spanName string) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		s.panics.Inc()
		if s.opt.Flight != nil {
			s.opt.Flight.TriggerPanic(spanName, p)
		}
		writeErr(sw, http.StatusInternalServerError, fmt.Errorf("internal panic: %v", p))
	}()
	h(sw, r)
}

// handleSnap is handle for endpoints that need serving state: the
// handler receives the snapshot current at request start, with a
// reference held until it returns, and uses it throughout, so a
// concurrent reload can never shear a request across two generations
// nor close the index under it. While no snapshot is published yet,
// these answer 503 (matching /readyz). The handler runs with
// debug.SetPanicOnFault on: a fault reading the mapped index (a file
// truncated under the server) is a panic invoke answers with a 500, and
// /update's insert unlocks the writer mutex on the way out.
func (s *Server) handleSnap(path, method string, limit int64, h func(sn *snapshot, w http.ResponseWriter, r *http.Request)) {
	s.handle(path, method, limit, func(w http.ResponseWriter, r *http.Request) {
		sn := label.Acquire(&s.snap)
		if sn == nil {
			writeErr(w, http.StatusServiceUnavailable, errors.New("index is still loading"))
			return
		}
		defer sn.release()
		note(w).gen = sn.gen
		if s.afterLoad != nil {
			s.afterLoad(sn)
		}
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		h(sn, w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// writeBodyErr answers a request body that failed to read or decode:
// 413 when it ran past the endpoint's limit (see handle), else 400.
func writeBodyErr(w http.ResponseWriter, err error) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit))
		return
	}
	writeErr(w, http.StatusBadRequest, err)
}
