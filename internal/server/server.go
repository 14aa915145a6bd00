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
//	GET  /knn?s=A&k=N     → k closest vertices with exact distances
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
// The serving state — index, the optional graph it indexes, lazily built
// KNN index, generation counter, source path — lives in one immutable
// snapshot behind an atomic pointer. Queries load the pointer once and
// run entirely against that snapshot; Reload builds the next snapshot
// off the request path and publishes it with a single atomic store.
// In-flight queries finish on the snapshot they started with, the KNN
// cache is rebuilt per snapshot (never stale), and an mmap-backed old
// index is unmapped by its finalizer once the last query referencing it
// completes — safe because every label.Index (and knn.Index) reader
// pins the mapping with runtime.KeepAlive until its last array access.
//
// # Living-graph mode
//
// A snapshot published by PublishLive (the -wal serving mode) carries an
// Updater, and its query surface is that updatable pipeline instead of
// the immutable index: distances then mutate WITHIN a generation as
// edges arrive, so the generation-keyed distance cache is deliberately
// bypassed — a cached answer could overestimate a pair an insert just
// shortened. The index beside it is the checkpoint artifact behind
// /stats, /knn and /debug/explain. A background compaction rolls the
// next checkpoint in through Reload of the same file, which carries the
// updater forward into the new generation; a reload of any other file
// is refused (ErrLiveReload), since an index of another graph beside the
// pipeline would answer /knn and explain from the wrong graph.
// /update, /readyz, /stats and /metrics read the updater from the
// snapshot they loaded, so before the first publish /update answers 503
// like every other snapshot endpoint.
//
// Configuration is fixed at construction (Options); the only setter,
// SetCacheEntries, must run before the first Publish.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parapll/internal/compact"
	"parapll/internal/dynamic"
	"parapll/internal/flight"
	"parapll/internal/graph"
	"parapll/internal/knn"
	"parapll/internal/label"
	"parapll/internal/metrics"
	"parapll/internal/oracle"
	"parapll/internal/qcache"
	"parapll/internal/trace"
	"parapll/internal/wal"
)

// snapshot is one immutable generation of serving state. All fields are
// written before the snapshot is published and never after, except the
// lazily built KNN index behind its own sync.Once.
type snapshot struct {
	idx    *label.Index
	ora    oracle.Oracle // the query surface handlers program against
	g      *graph.Graph  // the graph idx indexes, for /path; nil: 404
	up     Updater       // non-nil in living-graph mode; then ora == up
	gen    uint64
	source string // file the index was loaded from; "" if in-memory
	loaded time.Time

	knnOnce sync.Once
	knn     *knn.Index
}

// knnIndex builds the inverted index on first use — per snapshot, so a
// reload can never serve KNN answers from a previous generation.
func (sn *snapshot) knnIndex() *knn.Index {
	sn.knnOnce.Do(func() { sn.knn = knn.New(sn.idx) })
	return sn.knn
}

// Loader loads an index file for Reload (which decides whether the
// graph /path walks carries over).
type Loader func(path string) (*label.Index, error)

// Reload error sentinels, mapped to HTTP statuses by POST /reload.
var (
	// ErrNoLoader means the server was built around an in-memory index
	// and has no way to load another one.
	ErrNoLoader = errors.New("server: no loader configured")
	// ErrReloadBusy means another reload is still in progress.
	ErrReloadBusy = errors.New("server: reload already in progress")
	// ErrLiveReload means a living-graph server was asked to load a file
	// other than its own checkpoint.
	ErrLiveReload = errors.New("server: a living graph reloads only its own checkpoint")
)

// Updater is the living-graph seam behind POST /update: an updatable
// oracle (compact.Pipeline in production) that durably logs and applies
// edge inserts while serving queries. Stats feeds the /stats "wal"
// section and the wal.* / compact.* gauges on /metrics.
type Updater interface {
	oracle.Oracle
	Update(u, v graph.Vertex, w graph.Dist) error
	Stats() compact.Stats
}

// The production updater.
var _ Updater = (*compact.Pipeline)(nil)

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
	// SlowThreshold is the wall time at or above which a request enters
	// the /debug/slow log (0: 100 ms; negative: the log stays empty).
	SlowThreshold time.Duration
	// Tracer records a span for each sampled request and arms
	// /debug/trace (nil: tracing off).
	Tracer *trace.Tracer
	// Flight is the recorder behind /debug/bundle, which also dumps a
	// bundle when a handler panics (nil: /debug/bundle answers 412).
	Flight *flight.Recorder
	// Watchdog is the verdict source behind /debug/health; its owner
	// starts and stops it (nil: /debug/health answers 412).
	Watchdog *flight.Watchdog
	// QueryWindow receives the latency in microseconds of every /query
	// and /batch request. Pass the same histogram to the watchdog's
	// latency rule: the server only observes, the watchdog rotates and
	// judges.
	QueryWindow *metrics.WindowedHistogram
}

// Server answers distance queries over HTTP from an atomically swappable
// index snapshot.
type Server struct {
	opt      Options // as NewPending was given it, Registry and BatchThreads filled in
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

	// Sampled request spans land in per-lane trace ring buffers (lane =
	// round-robin over requestLanes tids) so concurrent requests never
	// contend on one ring.
	traceLane atomic.Uint64
	captureMu sync.Mutex // serializes /debug/trace live captures
	slow      *SlowLog

	// reloadFailures counts failed reloads (HTTP and SIGHUP alike) — the
	// watchdog's reload-failure rule watches its per-window delta.
	reloadFailures *metrics.Counter
	panics         *metrics.Counter
}

// requestLanes is how many trace ring buffers sampled request spans are
// spread across, starting at trace.TIDRequestBase.
const requestLanes = 32

// Slow-log defaults.
const (
	defaultSlowCapacity  = 256
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
		s.opt.BatchThreads = defaultBatchThreads()
	}
	if s.opt.SlowThreshold == 0 {
		s.opt.SlowThreshold = defaultSlowThreshold
	}
	s.slow = NewSlowLog(defaultSlowCapacity, s.opt.SlowThreshold)
	if tr := s.opt.Tracer; tr != nil {
		tr.SetProcessName("parapll-server")
		tr.SetThreadName(trace.TIDCache, "qcache")
		tr.SetThreadName(trace.TIDWAL, "wal")
		tr.SetThreadName(trace.TIDCompact, "compactor")
		for i := 0; i < requestLanes; i++ {
			tr.SetThreadName(trace.TIDRequestBase+i, fmt.Sprintf("http lane %d", i))
		}
	}
	reg := s.opt.Registry
	s.inflight = reg.Gauge("http.inflight")
	s.generation = reg.Gauge("index.generation")
	s.reloadFailures = reg.Counter("reload.failures_total")
	s.panics = reg.Counter("http.panics_total")
	s.handleSnap("/query", http.MethodGet, 0, faultsPanic(s.handleQuery))
	s.handleSnap("/batch", http.MethodPost, maxBatchBytes, faultsPanic(s.handleBatch))
	s.handleSnap("/path", http.MethodGet, 0, faultsPanic(s.handlePath))
	s.handleSnap("/knn", http.MethodGet, 0, faultsPanic(s.handleKNN))
	s.handleSnap("/stats", http.MethodGet, 0, s.handleStats)
	s.handleSnap("/update", http.MethodPost, maxUpdateBytes, faultsPanic(s.handleUpdate))
	s.handle("/reload", http.MethodPost, maxReloadBytes, s.handleReload)
	s.handle("/readyz", http.MethodGet, 0, s.handleReadyz)
	s.handle("/healthz", http.MethodGet, 0, s.handleHealthz)
	s.handle("/metrics", http.MethodGet, 0, s.handleMetrics)
	s.handle("/debug/slow", http.MethodGet, 0, s.handleDebugSlow)
	s.handle("/debug/trace", http.MethodGet, 0, s.handleDebugTrace)
	s.handleSnap("/debug/explain", http.MethodGet, 0, faultsPanic(s.handleDebugExplain))
	s.handle("/debug/health", http.MethodGet, 0, s.handleDebugHealth)
	s.handle("/debug/bundle", http.MethodGet, 0, s.handleDebugBundle)
	return s
}

// ReloadFailures returns the counter behind the watchdog's
// reload-failure rule, so cmd/parapll-server can register the rule on
// the exact counter the serve path increments.
func (s *Server) ReloadFailures() *metrics.Counter { return s.reloadFailures }

// defaultBatchThreads is the /batch fan-out when no -batch-threads flag
// overrides it: up to 4 goroutines, but never more than the machine
// has — a 2-core box should not timeslice 4 batch workers against its
// request handlers.
func defaultBatchThreads() int {
	n := runtime.GOMAXPROCS(0)
	if n > 4 {
		n = 4
	}
	if n < 1 {
		n = 1
	}
	return n
}

// SetCacheEntries bounds the (s,t) distance cache fronting every
// snapshot published afterwards; entries <= 0 disables caching. The
// cache holds at most entries answers, fewer when qcache.New rounds
// down (/stats cache.capacity reports the real bound). Hit,
// miss and eviction counts are recorded in this server's registry as
// cache.hits / cache.misses / cache.evictions. Call before the first
// Publish — snapshots already published keep serving uncached.
func (s *Server) SetCacheEntries(entries int) {
	if entries <= 0 {
		s.cache = nil
		return
	}
	c := qcache.New(entries)
	c.SetCounters(
		s.opt.Registry.Counter("cache.hits"),
		s.opt.Registry.Counter("cache.misses"),
		s.opt.Registry.Counter("cache.evictions"),
	)
	s.cache = c
}

// Cache returns the configured distance cache (nil when disabled).
func (s *Server) Cache() *qcache.Cache { return s.cache }

// Updater returns the current snapshot's living-graph updater (nil
// before the first publish and on a static snapshot).
func (s *Server) Updater() Updater {
	if sn := s.snap.Load(); sn != nil {
		return sn.up
	}
	return nil
}

// walStats reads up's stats and mirrors them into the wal.* / compact.*
// gauges, or returns nil when up is nil. Called at scrape/stat time rather
// than per update: gauges are point-in-time reads anyway, and this
// keeps /update's hot path to the pipeline's own work.
func (s *Server) walStats(up Updater) *compact.Stats {
	if up == nil {
		return nil
	}
	st := up.Stats()
	s.opt.Registry.Gauge("wal.records").Set(int64(st.WALRecords))
	s.opt.Registry.Gauge("wal.bytes").Set(st.WALBytes)
	s.opt.Registry.Gauge("compact.generation").Set(int64(st.Compactions))
	s.opt.Registry.Gauge("compact.last_unix_nano").Set(st.LastCompactUnixNano)
	s.opt.Registry.Gauge("compact.delta_entries").Set(st.DeltaEntries)
	return &st
}

// Registry returns the registry this server records into.
func (s *Server) Registry() *metrics.Registry { return s.opt.Registry }

// Generation returns the current snapshot's generation (0 = none yet).
func (s *Server) Generation() uint64 {
	if sn := s.snap.Load(); sn != nil {
		return sn.gen
	}
	return 0
}

// Publish atomically swaps in new static serving state and returns its
// generation. In-flight requests keep the snapshot they started with;
// new requests see the new one. Safe to call concurrently with
// traffic. g, the graph idx indexes, is optional and kept only when its
// vertex count is the index's: with it the snapshot answers /path,
// without it /path answers 404.
func (s *Server) Publish(idx *label.Index, g *graph.Graph, source string) uint64 {
	return s.publish(nil, idx, g, source).gen
}

// PublishLive is Publish in living-graph mode: the snapshot serves
// queries and POST /update through up (uncached — see the package doc),
// with idx, loaded from source, as the checkpoint artifact beside it.
func (s *Server) PublishLive(up Updater, idx *label.Index, source string) uint64 {
	return s.publish(up, idx, nil, source).gen
}

// publish is Publish returning the stored snapshot itself, so callers
// that need the published state (handleReload's response) read the
// snapshot they created instead of re-loading the pointer — a second
// load could observe a different, concurrent publish.
func (s *Server) publish(up Updater, idx *label.Index, g *graph.Graph, source string) *snapshot {
	if g != nil && g.NumVertices() != idx.NumVertices() {
		g = nil
	}
	gen := s.gen.Add(1)
	ora := oracle.Oracle(idx)
	if up != nil {
		// Living-graph mode: the pipeline is the query surface. No cache
		// wrap: distances mutate within this generation, and a cached
		// overestimate would survive the insert that shortened it.
		ora = up
	} else if s.cache != nil {
		// label.Index is undirected, so (s,t) and (t,s) share one cache
		// entry. The wrapper carries this snapshot's generation: a
		// reload can never serve distances from the previous graph.
		ora = qcache.Wrap(idx, s.cache, gen, qcache.Options{
			Symmetric: true,
			Tracer:    s.opt.Tracer,
		})
	}
	sn := &snapshot{
		idx:    idx,
		ora:    ora,
		g:      g,
		up:     up,
		gen:    gen,
		source: source,
		loaded: time.Now(),
	}
	s.snap.Store(sn)
	s.generation.Set(int64(gen))
	return sn
}

// Reload loads an index file and publishes it. An empty path reloads
// the current snapshot's source file. Only one reload runs at a time
// (ErrReloadBusy otherwise); queries are never blocked — they serve the
// old snapshot until the atomic swap. The current snapshot's graph is
// carried over only when the reload re-reads the same source file (and
// Publish keeps it): a different artifact indexes another graph, so
// /path answers 404 after it. A living snapshot's updater is carried over too, and it reloads only
// its own checkpoint (ErrLiveReload otherwise).
func (s *Server) Reload(path string) (uint64, error) {
	sn, err := s.reload(path)
	if err != nil {
		return 0, err
	}
	return sn.gen, nil
}

// reload implements Reload and returns the snapshot it published. The
// current snapshot is loaded exactly once, up front: the empty-path
// resolution, the living-graph check and the graph carry-over decision
// read that one value, so a concurrent publish mid-reload cannot split
// the decisions across generations.
func (s *Server) reload(path string) (*snapshot, error) {
	sn, err := s.reloadInner(path)
	if err != nil && !errors.Is(err, ErrReloadBusy) && !errors.Is(err, ErrLiveReload) {
		// Busy and a refused path are the 409s, not failures of the
		// serving artifact; everything else feeds the watchdog's
		// reload-failure rule and the flight recorder's error ring.
		s.reloadFailures.Inc()
		if s.opt.Flight != nil {
			s.opt.Flight.RecordError("reload", err)
		}
	}
	return sn, err
}

func (s *Server) reloadInner(path string) (*snapshot, error) {
	if s.opt.Loader == nil {
		return nil, ErrNoLoader
	}
	if !s.reloadMu.TryLock() {
		return nil, ErrReloadBusy
	}
	defer s.reloadMu.Unlock()
	cur := s.snap.Load()
	if cur == nil {
		cur = &snapshot{} // nothing published: no source, graph or updater to carry
	}
	if path == "" {
		path = cur.source
	}
	if path == "" {
		return nil, fmt.Errorf("server: no index path to reload (served index was built in memory)")
	}
	if cur.up != nil && path != cur.source {
		return nil, fmt.Errorf("%w: serving %s, asked for %s", ErrLiveReload, cur.source, path)
	}
	idx, err := s.opt.Loader(path)
	if err != nil {
		return nil, fmt.Errorf("server: reloading %s: %w", path, err)
	}
	var g *graph.Graph
	if path == cur.source {
		g = cur.g // publish drops it if the vertex count moved
	}
	return s.publish(cur.up, idx, g, path), nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter remembers the first status code a handler wrote so the
// middleware can count errors without re-deriving them per handler,
// plus the handler's slow-log annotations: the snapshot generation the
// request was served from and whether the distance cache answered.
type statusWriter struct {
	http.ResponseWriter
	status int
	gen    uint64
	cache  int8 // cacheNone / cacheMiss / cacheHit
}

// statusWriters recycles the middleware's wrapper: a handler is done
// with its ResponseWriter when it returns, so the next request can have
// the same one.
var statusWriters = sync.Pool{New: func() any { return new(statusWriter) }}

// noteCache annotates the in-flight request's slow-log entry with the
// distance-cache outcome. w is the middleware's statusWriter on the
// serving path; anything else (a bare ResponseWriter in a unit test) is
// a silent no-op.
func noteCache(w http.ResponseWriter, hit bool) {
	if sw, ok := w.(*statusWriter); ok {
		if hit {
			sw.cache = cacheHit
		} else {
			sw.cache = cacheMiss
		}
	}
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
// also feeds the slow-query log and, when a tracer is installed and the
// request is sampled, a per-request trace span.
func (s *Server) handle(path, method string, limit int64, h http.HandlerFunc) {
	name := strings.TrimPrefix(path, "/")
	requests := s.opt.Registry.Counter("http.requests." + name)
	errorsC := s.opt.Registry.Counter("http.errors." + name)
	latency := s.opt.Registry.Histogram("http.latency_us."+name, metrics.DefaultLatencyBuckets)
	spanName := "http " + name
	// The watchdog's query-p99 rule judges the user-visible distance
	// endpoints, not debug or admin traffic.
	var window *metrics.WindowedHistogram
	if path == "/query" || path == "/batch" {
		window = s.opt.QueryWindow
	}
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
		if window != nil {
			window.Observe(elapsed.Microseconds())
		}
		status, gen, cache := sw.status, sw.gen, sw.cache
		sw.ResponseWriter = nil
		statusWriters.Put(sw)
		if status >= 400 {
			errorsC.Inc()
		}
		if status == 0 {
			status = http.StatusOK // handler wrote the body without WriteHeader
		}
		s.slow.Observe(r.Method, path, r.URL.RawQuery, status, gen, cache, start, elapsed)
		if tr := s.opt.Tracer; tr.Sample() {
			lane := trace.TIDRequestBase + int(s.traceLane.Add(1)%requestLanes)
			id := tr.Intern(spanName, "status")
			t1 := tr.At(start)
			tr.Buf(lane).Span(id, t1, t1+elapsed.Nanoseconds(), uint64(status))
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
// handler receives the snapshot current at request start and uses it
// throughout, so a concurrent reload can never shear a request across
// two generations. While no snapshot is published yet, these answer
// 503 (matching /readyz).
func (s *Server) handleSnap(path, method string, limit int64, h func(sn *snapshot, w http.ResponseWriter, r *http.Request)) {
	s.handle(path, method, limit, func(w http.ResponseWriter, r *http.Request) {
		sn := s.snap.Load()
		if sn == nil {
			writeErr(w, http.StatusServiceUnavailable, errors.New("index is still loading"))
			return
		}
		if sw, ok := w.(*statusWriter); ok {
			sw.gen = sn.gen // slow-log entries name the generation they ran on
		}
		h(sn, w, r)
	})
}

// faultsPanic runs a handler that reads the mapped index with
// debug.SetPanicOnFault on: a fault in it (a file truncated under the
// server) is a panic invoke answers with a 500. /update's insert unlocks
// the writer mutex on the way out.
func faultsPanic(h func(sn *snapshot, w http.ResponseWriter, r *http.Request)) func(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	return func(sn *snapshot, w http.ResponseWriter, r *http.Request) {
		defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
		h(sn, w, r)
	}
}

func vertexParam(sn *snapshot, r *http.Request, name string) (graph.Vertex, error) {
	raw := queryParam(r.URL.RawQuery, name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q", raw)
	}
	if v < 0 || int(v) >= sn.ora.NumVertices() {
		return 0, fmt.Errorf("vertex %d out of range [0,%d)", v, sn.ora.NumVertices())
	}
	return graph.Vertex(v), nil
}

// pairParams reads a pair endpoint's s and t, answering 400 itself when
// either is missing, malformed or out of range.
func pairParams(sn *snapshot, w http.ResponseWriter, r *http.Request) (src, dst graph.Vertex, ok bool) {
	src, err := vertexParam(sn, r, "s")
	if err == nil {
		dst, err = vertexParam(sn, r, "t")
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
	}
	return src, dst, err == nil
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

// encodeDist is a distance as the wire carries it: -1 when unreachable.
func encodeDist(d graph.Dist) int64 {
	if d == graph.Inf {
		return -1
	}
	return int64(d)
}

func (s *Server) handleQuery(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	src, dst, ok := pairParams(sn, w, r)
	if !ok {
		return
	}
	var d graph.Dist
	if c, ok := sn.ora.(*qcache.Cached); ok {
		// Same lookup as Query, plus the hit bit for the slow log: a slow
		// cache *hit* indicts the HTTP layer, a slow miss the merge kernel.
		var hit bool
		d, hit = c.QueryNote(src, dst)
		noteCache(w, hit)
	} else {
		d = sn.ora.Query(src, dst) //parapll:vet-ignore snapgen the else of the QueryNote branch: one of the two runs
	}
	b := getWireBuf()
	b.out = appendQueryReply(b.out[:0], src, dst, d)
	writeReply(w, b.out)
	putWireBuf(b)
}

const (
	maxBatch = 100000
	// maxBatchBytes bounds the /batch request body: a maxBatch-pair
	// payload of maximal vertex ids is ~2 MiB, so 8 MiB leaves headroom
	// without letting a client stream gigabytes into the decoder.
	maxBatchBytes = 8 << 20
)

// handleBatch serves POST /batch: {"pairs":[[s,t],...]} in, {"dists":[...]}
// out in the same order, -1 for unreachable (see pairDecoder for exactly
// which bodies are accepted).
func (s *Server) handleBatch(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	b := getWireBuf()
	defer putWireBuf(b)
	pairs, err := b.decodePairs(r.Body, maxBatch)
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	n := sn.ora.NumVertices()
	for i, p := range pairs {
		if int(p[0]) >= n || int(p[1]) >= n { // the decoder admits no negative id
			writeErr(w, http.StatusBadRequest, fmt.Errorf("pair %d out of range", i))
			return
		}
	}
	b.out = appendBatchReply(b.out[:0], sn.ora.QueryBatch(pairs, s.opt.BatchThreads))
	writeReply(w, b.out)
}

// pathResponse is the /path reply.
type pathResponse struct {
	Path []graph.Vertex `json:"path"`
	Dist int64          `json:"dist"`
}

// handlePath serves GET /path?s=A&t=B: a shortest path walked over the
// snapshot's graph by exact distances (graph.Path). The walk asks the
// index, not the cached oracle, so its neighbour probes do not evict the
// cache's hot pairs.
func (s *Server) handlePath(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	if sn.g == nil {
		writeErr(w, http.StatusNotFound, errors.New("no graph beside this index (start the server with -graph)"))
		return
	}
	if src, dst, ok := pairParams(sn, w, r); ok {
		path, d := graph.Path(sn.g, sn.idx, src, dst)
		writeJSON(w, http.StatusOK, pathResponse{Path: path, Dist: encodeDist(d)})
	}
}

// knnResponse is the /knn reply.
type knnResponse struct {
	Results []knn.Result `json:"results"`
}

const maxK = 10000

// handleKNN serves GET /knn?s=A&k=N: the k closest vertices to s with
// exact distances. The inverted index is built lazily on first use (it
// costs as much memory as the index itself) and cached on the snapshot,
// so it is rebuilt — not reused stale — after every reload.
func (s *Server) handleKNN(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	src, err := vertexParam(sn, r, "s")
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	kRaw := queryParam(r.URL.RawQuery, "k")
	k, err := strconv.Atoi(kRaw)
	if err != nil || k < 1 || k > maxK {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad k %q (want 1..%d)", kRaw, maxK))
		return
	}
	res := sn.knnIndex().Query(src, k)
	if res == nil {
		res = []knn.Result{}
	}
	writeJSON(w, http.StatusOK, knnResponse{Results: res})
}

// statsResponse is the /stats reply.
type statsResponse struct {
	Vertices     int           `json:"vertices"`
	Entries      int64         `json:"entries"`
	AvgLabelSize float64       `json:"avg_label_size"`
	Head         int           `json:"head"`         // dense head columns K (label.Index.Head)
	HeadDensity  float64       `json:"head_density"` // share of the n x K head slots holding an entry
	Mid          int           `json:"mid"`          // bitmap columns K2 (label.Index.Mid)
	MidDensity   float64       `json:"mid_density"`  // share of the n x K2 bits that are set
	DistBytes    int           `json:"dist_bytes"`   // bytes a stored distance: 1, 2 or 4 (label.Index.DistBytes)
	HubBytes     int           `json:"hub_bytes"`    // bytes a tail hub id: 2 or 4 (label.Index.HubBytes)
	HasPathIndex bool          `json:"has_path_index"`
	Generation   uint64        `json:"generation"`
	Format       string        `json:"format"`
	Mmap         bool          `json:"mmap"`
	Source       string        `json:"source,omitempty"`
	Cache        *qcache.Stats `json:"cache,omitempty"`
	// Wal is present only in living-graph mode: the pipeline's WAL
	// length/bytes and compaction history.
	Wal *compact.Stats `json:"wal,omitempty"`
}

func (s *Server) statsPayload(sn *snapshot) statsResponse {
	k, density := sn.idx.Head()
	k2, midDensity := sn.idx.Mid()
	resp := statsResponse{
		Vertices:     sn.idx.NumVertices(),
		Entries:      sn.idx.NumEntries(),
		AvgLabelSize: sn.idx.AvgLabelSize(),
		Head:         k,
		HeadDensity:  density,
		Mid:          k2,
		MidDensity:   midDensity,
		DistBytes:    sn.idx.DistBytes(),
		HubBytes:     sn.idx.HubBytes(),
		HasPathIndex: sn.g != nil,
		Generation:   sn.gen,
		Format:       sn.idx.Format(),
		Mmap:         sn.idx.Mapped(),
		Source:       sn.source,
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = &st
	}
	resp.Wal = s.walStats(sn.up)
	return resp
}

func (s *Server) handleStats(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsPayload(sn))
}

// StatsPayload returns the /stats payload for the current snapshot (nil
// before the first Publish) — the flight recorder's Stats source, so a
// bundle embeds exactly what /stats would have answered at capture time.
func (s *Server) StatsPayload() any {
	sn := s.snap.Load()
	if sn == nil {
		return nil
	}
	return s.statsPayload(sn)
}

// maxUpdateBytes bounds the /update request body (three small ints)
// before JSON decoding starts.
const maxUpdateBytes = 1 << 16

// updateRequest / updateResponse are the /update wire types. Fields are
// int64 so range violations arrive as values we can reject explicitly
// instead of silently truncating into a "valid" vertex or weight, and
// pointers so a missing member is an error rather than a zero: a logged
// edge is never deleted, so the body must name the whole edge.
type updateRequest struct {
	U *int64 `json:"u"`
	V *int64 `json:"v"`
	W *int64 `json:"w"`
}
type updateResponse struct {
	Status     string `json:"status"`
	WalRecords int    `json:"wal_records"`
	Generation uint64 `json:"generation"`
}

// handleUpdate serves POST /update: durably insert one undirected edge
// through the living-graph pipeline. The pipeline acknowledges only
// after the WAL fsync, so a 200 here means the edge survives kill -9.
// On a static snapshot the endpoint answers 412; invalid edges 400; any
// insert once a write or fsync of the log has failed 503, until a
// restart.
func (s *Server) handleUpdate(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	up := sn.up
	if up == nil {
		writeErr(w, http.StatusPreconditionFailed,
			errors.New("server was started without -wal (no living-graph pipeline)"))
		return
	}
	u, v, wt, err := decodeUpdate(r.Body)
	if err != nil {
		writeBodyErr(w, fmt.Errorf("bad body: %w", err))
		return
	}
	n := int64(up.NumVertices())
	if u < 0 || u >= n || v < 0 || v >= n {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("edge {%d,%d} out of range [0,%d)", u, v, n))
		return
	}
	if wt <= 0 || wt >= int64(graph.Inf) {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("weight %d outside (0, %d)", wt, graph.Inf))
		return
	}
	if err := up.Update(graph.Vertex(u), graph.Vertex(v), graph.Dist(wt)); err != nil {
		switch {
		case errors.Is(err, dynamic.ErrInvalid):
			writeErr(w, http.StatusBadRequest, err)
		case errors.Is(err, wal.ErrFailed):
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Status:     "ok",
		WalRecords: up.Stats().WALRecords,
		Generation: sn.gen,
	})
}

// decodeUpdate reads an /update body: one object with exactly the
// members u, v and w, and nothing after it.
func decodeUpdate(body io.Reader) (u, v, w int64, err error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req updateRequest
	if err := dec.Decode(&req); err != nil {
		return 0, 0, 0, err
	}
	if req.U == nil || req.V == nil || req.W == nil {
		return 0, 0, 0, errors.New(`want the members "u", "v" and "w"`)
	}
	if _, err := dec.Token(); err != io.EOF {
		return 0, 0, 0, fmt.Errorf("data after the object at byte %d", dec.InputOffset())
	}
	return *req.U, *req.V, *req.W, nil
}

// maxReloadBytes bounds the /reload request body (a single file path)
// before JSON decoding starts.
const maxReloadBytes = 1 << 20

// reloadRequest / reloadResponse are the /reload wire types.
type reloadRequest struct {
	Path string `json:"path"`
}
type reloadResponse struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Source     string `json:"source"`
	Vertices   int    `json:"vertices"`
	Format     string `json:"format"`
	Mmap       bool   `json:"mmap"`
}

// handleReload serves POST /reload: load a fresh index (optionally from
// a different path) and swap it in atomically. The load happens on this
// request's goroutine; every other request keeps serving the old
// snapshot until the swap.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeBodyErr(w, fmt.Errorf("bad body: %w", err))
		return
	}
	// The response describes the snapshot this reload published, not
	// whatever s.snap holds by response time — a concurrent publish
	// between reload and a re-load of the pointer could attribute a
	// different generation to this request.
	sn, err := s.reload(req.Path)
	if err != nil {
		switch {
		case errors.Is(err, ErrReloadBusy), errors.Is(err, ErrLiveReload):
			writeErr(w, http.StatusConflict, err)
		case errors.Is(err, ErrNoLoader):
			writeErr(w, http.StatusPreconditionFailed, err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, reloadResponse{
		Status:     "ok",
		Generation: sn.gen,
		Source:     sn.source,
		Vertices:   sn.idx.NumVertices(),
		Format:     sn.idx.Format(),
		Mmap:       sn.idx.Mapped(),
	})
}

// handleReadyz distinguishes "process up" (/healthz) from "index
// published and answering" — the signal a load balancer or orchestrator
// should gate traffic on, since the listener comes up before the index
// finishes loading.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sn := s.snap.Load()
	if sn == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "loading"})
		return
	}
	// A living graph whose log has failed still answers reads, but takes
	// no update until it is restarted: not ready, and this is why.
	if sn.up != nil {
		if reason := sn.up.Stats().WALFailed; reason != "" {
			writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "wal failed", "reason": reason})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ready", "generation": sn.gen})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if sn := s.snap.Load(); sn != nil {
		s.walStats(sn.up) // wal.*/compact.* gauges are scrape-time reads
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
	ThresholdUS int64       `json:"threshold_us"`
	Total       uint64      `json:"total"`
	Entries     []SlowEntry `json:"entries"` // newest first
}

// handleDebugSlow serves GET /debug/slow: the bounded in-memory log of
// requests slower than the threshold, newest first.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, slowResponse{
		ThresholdUS: s.slow.threshold.Microseconds(),
		Total:       s.slow.Total(),
		Entries:     s.slow.Entries(),
	})
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
	if tr == nil {
		writeErr(w, http.StatusPreconditionFailed,
			errors.New("no tracer configured (start the server with -trace-sample)"))
		return
	}
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
