package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"parapll/internal/flight"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/metrics"
	"parapll/internal/pll"
	"parapll/internal/trace"
)

// spoolBundles lists the flight bundles in spool dir, oldest first.
func spoolBundles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "bundle-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// testDiagServer builds a server configured by o over the usual
// 5-vertex test graph, optionally fronted by the distance cache,
// returning the pieces tests poke at directly.
func testDiagServer(t *testing.T, cacheEntries int, o *Options) (*Server, *httptest.Server, *label.Index) {
	t.Helper()
	idx := pll.Build(testGraph(), pll.Options{})
	s := serverWithCache(idx, cacheEntries, o)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts, idx
}

// explainWire mirrors the /debug/explain JSON for decoding.
type explainWire struct {
	S          int64  `json:"s"`
	T          int64  `json:"t"`
	Dist       int64  `json:"dist"`
	Hub        int64  `json:"meeting_hub"`
	Reachable  bool   `json:"reachable"`
	SLabelLen  int    `json:"s_label_len"`
	TLabelLen  int    `json:"t_label_len"`
	Algo       string `json:"algo"`
	HubsProbed int    `json:"hubs_probed"`
	MergeNS    int64  `json:"merge_ns"`
	Generation uint64 `json:"generation"`
	Note       string `json:"note"`
	Cache      *struct {
		Hit  bool  `json:"hit"`
		Dist int64 `json:"dist"`
	} `json:"cache"`
}

// TestDebugExplainEndpoint: /debug/explain answers exactly like /query
// for every pair (including the unreachable ones), reports the meeting
// hub QueryWithHub reports, validates input, and carries the cache's
// undisturbed view of the pair.
func TestDebugExplainEndpoint(t *testing.T) {
	s, ts, idx := testDiagServer(t, 1<<10, nil)

	for src := 0; src < 5; src++ {
		for dst := 0; dst < 5; dst++ {
			var ex explainWire
			url := ts.URL + "/debug/explain?s=" + strconv.Itoa(src) + "&t=" + strconv.Itoa(dst)
			if code := getJSON(t, url, &ex); code != 200 {
				t.Fatalf("explain(%d,%d) status %d", src, dst, code)
			}
			wantD := idx.Query(graph.Vertex(src), graph.Vertex(dst))
			wantHubD, wantHub := idx.QueryWithHub(graph.Vertex(src), graph.Vertex(dst))
			if ex.Dist != encodeDist(wantD) || wantD != wantHubD {
				t.Fatalf("explain(%d,%d) dist %d, want %d", src, dst, ex.Dist, encodeDist(wantD))
			}
			if ex.Hub != int64(wantHub) {
				t.Fatalf("explain(%d,%d) hub %d, want %d", src, dst, ex.Hub, wantHub)
			}
			if ex.Reachable != (wantD != graph.Inf) || ex.Generation != s.Generation() {
				t.Fatalf("explain(%d,%d) = %+v", src, dst, ex)
			}
			if ex.Algo == "" || ex.Cache == nil {
				t.Fatalf("explain(%d,%d) missing algo/cache: %+v", src, dst, ex)
			}
		}
	}

	// The cache section tracks real cache state without disturbing it:
	// cold pair → miss; after a /query primes it → hit with the answer.
	var ex explainWire
	getJSON(t, ts.URL+"/debug/explain?s=0&t=3", &ex)
	if ex.Cache.Hit {
		t.Fatal("explain saw a cache hit before any query")
	}
	var q queryResponse
	getJSON(t, ts.URL+"/query?s=0&t=3", &q)
	getJSON(t, ts.URL+"/debug/explain?s=0&t=3", &ex)
	if !ex.Cache.Hit || ex.Cache.Dist != q.Dist {
		t.Fatalf("post-query explain cache = %+v, want hit with dist %d", ex.Cache, q.Dist)
	}

	// Validation mirrors /query.
	for _, bad := range []string{"?s=0", "?t=0", "?s=x&t=0", "?s=0&t=99"} {
		if code := getJSON(t, ts.URL+"/debug/explain"+bad, new(map[string]string)); code != 400 {
			t.Fatalf("explain%s status %d, want 400", bad, code)
		}
	}
}

// TestDebugExplainNoCache: without a distance cache the reply simply
// omits the cache section.
func TestDebugExplainNoCache(t *testing.T) {
	_, ts, _ := testDiagServer(t, 0, nil)
	var ex explainWire
	if code := getJSON(t, ts.URL+"/debug/explain?s=0&t=2", &ex); code != 200 {
		t.Fatalf("status %d", code)
	}
	if ex.Cache != nil {
		t.Fatalf("uncached server reported a cache section: %+v", ex.Cache)
	}
}

// TestDebugHealthEndpoint: 412 until a watchdog is armed, then the
// verdict report.
func TestDebugHealthEndpoint(t *testing.T) {
	_, ts, _ := testDiagServer(t, 0, nil)
	if code := getJSON(t, ts.URL+"/debug/health", new(map[string]string)); code != http.StatusPreconditionFailed {
		t.Fatalf("no-watchdog status %d, want 412", code)
	}

	reg := metrics.NewRegistry()
	wd := flight.NewWatchdog(flight.WatchdogOptions{Registry: reg})
	h := metrics.NewHistogram(metrics.DefaultLatencyBuckets)
	wd.AddLatencyRule("query_p99", "us", 0.99, 1000, 1, h)
	_, ts, _ = testDiagServer(t, 0, &Options{Registry: reg, Watchdog: wd})

	for i := 0; i < flight.BreachAfter; i++ {
		h.Observe(100_000)
		wd.Tick()
	}
	var rep flight.HealthReport
	if code := getJSON(t, ts.URL+"/debug/health", &rep); code != 200 {
		t.Fatalf("health status %d", code)
	}
	if rep.Status != "breach" || len(rep.Verdicts) != 1 || !rep.Verdicts[0].Breached {
		t.Fatalf("health report = %+v", rep)
	}
}

// TestDebugBundleEndpoint: 412 until a recorder is armed; afterwards a
// manual trigger streams a parseable bundle that also lands in the
// spool, with embedded trace and server stats.
func TestDebugBundleEndpoint(t *testing.T) {
	_, ts, _ := testDiagServer(t, 0, nil)
	if code := getJSON(t, ts.URL+"/debug/bundle", new(map[string]string)); code != http.StatusPreconditionFailed {
		t.Fatalf("no-recorder status %d, want 412", code)
	}

	tr := trace.New(1, 1<<12)
	tr.Enable()
	reg := metrics.NewRegistry()
	var s *Server // the recorder's Stats source reads the server built after it
	spool := t.TempDir()
	rec, err := flight.New(spool, flight.Sources{
		Tracer:   tr,
		Registry: reg,
		Stats:    func() any { return s.StatsPayload() },
	})
	if err != nil {
		t.Fatalf("flight.New: %v", err)
	}
	s, ts, _ = testDiagServer(t, 0, &Options{Registry: reg, Tracer: tr, Flight: rec})

	var q queryResponse
	getJSON(t, ts.URL+"/query?s=0&t=3", &q) // put a span in the ring

	resp, err := http.Get(ts.URL + "/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("bundle status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Flight-Bundle") == "" {
		t.Fatal("missing X-Flight-Bundle header")
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	b, err := flight.ParseBundle(data)
	if err != nil {
		t.Fatalf("ParseBundle: %v", err)
	}
	if b.Meta.Reason != "http" || len(b.Trace) == 0 || b.Stats == nil {
		t.Fatalf("bundle = reason %q trace %d bytes stats %v", b.Meta.Reason, len(b.Trace), b.Stats)
	}
	if st, err := trace.CheckCapture(b.Trace); err != nil || st.Spans == 0 {
		t.Fatalf("embedded trace: spans %d err %v", st.Spans, err)
	}
	if got := len(spoolBundles(t, spool)); got != 1 {
		t.Fatalf("spool holds %d bundles, want 1", got)
	}
}

// TestPanicRecoveryMiddleware: a panicking handler yields a 500 (not a
// dead connection), increments the panic counter, and dumps a flight
// bundle tagged with the endpoint — bypassing the auto-capture gap.
func TestPanicRecoveryMiddleware(t *testing.T) {
	reg := metrics.NewRegistry()
	dir := t.TempDir()
	rec, err := flight.New(dir, flight.Sources{Registry: reg})
	if err != nil {
		t.Fatalf("flight.New: %v", err)
	}
	s, ts, _ := testDiagServer(t, 0, &Options{Registry: reg, Flight: rec})
	s.handle("/boom", http.MethodGet, 0, func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})

	var e map[string]string
	if code := getJSON(t, ts.URL+"/boom", &e); code != http.StatusInternalServerError {
		t.Fatalf("panic status %d, want 500", code)
	}
	if e["error"] == "" {
		t.Fatal("missing error body")
	}
	snap := s.opt.Registry.Snapshot()
	if snap.Counters["http.panics_total"] != 1 {
		t.Fatalf("http.panics_total = %d, want 1", snap.Counters["http.panics_total"])
	}
	if snap.Counters["http.errors.boom"] != 1 {
		t.Fatal("panic did not count as an endpoint error")
	}
	spool := spoolBundles(t, dir)
	if len(spool) != 1 {
		t.Fatalf("spool holds %d bundles after panic, want 1", len(spool))
	}
	data, err := os.ReadFile(spool[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := flight.ParseBundle(data)
	if err != nil {
		t.Fatalf("ParseBundle: %v", err)
	}
	if b.Meta.Reason == "" || len(b.Errors) == 0 {
		t.Fatalf("panic bundle = %+v", b.Meta)
	}
	// The server keeps serving after the panic.
	var q queryResponse
	if code := getJSON(t, ts.URL+"/query?s=0&t=1", &q); code != 200 {
		t.Fatalf("post-panic query status %d", code)
	}
}

// TestSlowLogAnnotations: over HTTP, slow /query entries carry the
// snapshot generation, the cache hit/miss bit (miss first, then hit on
// the repeat) and the pair, and /stats entries carry generation only.
func TestSlowLogAnnotations(t *testing.T) {
	s, ts, _ := testDiagServer(t, 1<<10, &Options{SlowThreshold: time.Nanosecond}) // everything is slow

	var q queryResponse
	getJSON(t, ts.URL+"/query?s=0&t=3", &q)
	getJSON(t, ts.URL+"/query?s=0&t=3", &q)
	getJSON(t, ts.URL+"/stats", new(map[string]any))

	var resp slowResponse
	getJSON(t, ts.URL+"/debug/slow", &resp)
	var queries []slowEntry
	var stats []slowEntry
	for _, e := range resp.Entries { // newest first
		switch e.Path {
		case "/query":
			queries = append(queries, e)
		case "/stats":
			stats = append(stats, e)
		}
	}
	if len(queries) != 2 || len(stats) != 1 {
		t.Fatalf("slow lane holds %d query + %d stats entries, want 2 + 1", len(queries), len(stats))
	}
	gen := s.Generation()
	if queries[0].Cache != "hit" || queries[1].Cache != "miss" {
		t.Fatalf("query cache bits = [%q %q], want [hit miss] (newest first)", queries[0].Cache, queries[1].Cache)
	}
	for _, e := range queries {
		if e.Generation != gen || e.S == nil || e.T == nil || *e.S != 0 || *e.T != 3 {
			t.Fatalf("query entry = gen %d pair %v %v, want gen %d pair 0 3", e.Generation, e.S, e.T, gen)
		}
	}
	if e := stats[0]; e.Generation != gen || e.Cache != "" || e.S != nil || e.T != nil {
		t.Fatalf("stats entry = gen %d cache %q pair %v %v, want gen %d, no cache, no pair", e.Generation, e.Cache, e.S, e.T, gen)
	}
}

// TestLatencyRuleSeesQueryAndBatch: a latency rule over the registry's
// http.latency_us.query and http.latency_us.batch histograms, as
// parapll-server wires query_p99, counts every /query and /batch
// request and no admin or debug one.
func TestLatencyRuleSeesQueryAndBatch(t *testing.T) {
	reg := metrics.NewRegistry()
	wd := flight.NewWatchdog(flight.WatchdogOptions{Registry: reg})
	// Threshold 0: any window of at least two requests is bad, so the
	// verdict tells whether both endpoints reached the rule.
	wd.AddLatencyRule("query_p99", "us", 0.99, 0, 2,
		reg.Histogram("http.latency_us.query", metrics.DefaultLatencyBuckets),
		reg.Histogram("http.latency_us.batch", metrics.DefaultLatencyBuckets))
	_, ts, _ := testDiagServer(t, 0, &Options{Registry: reg, Watchdog: wd})
	value := func() int64 { return wd.Health().Verdicts[0].Value }

	var q queryResponse
	getJSON(t, ts.URL+"/query?s=0&t=3", &q)
	getJSON(t, ts.URL+"/stats", new(map[string]any))
	getJSON(t, ts.URL+"/healthz", new(map[string]string))
	getJSON(t, ts.URL+"/debug/slow", new(map[string]any))
	wd.Tick()
	if v := value(); v != 0 {
		t.Fatalf("window of one /query and three admin requests read %d, want 0 (under minCount 2)", v)
	}

	getJSON(t, ts.URL+"/query?s=0&t=3", &q)
	resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(`{"pairs":[[0,1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/batch status %d", resp.StatusCode)
	}
	wd.Tick()
	if v := value(); v <= 0 {
		t.Fatalf("window of one /query and one /batch read %d, want their p99 (> 0)", v)
	}
	wd.Tick()
	if v := value(); v != 0 {
		t.Fatalf("idle window read %d, want 0", v)
	}
}
