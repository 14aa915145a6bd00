package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/metrics"
	"parapll/internal/pll"
	"parapll/internal/sssp"
)

// testGraph is the path 0-1-2-3 with weights 3, 4, 5; vertex 4 is
// isolated.
func testGraph() *graph.Graph {
	return graph.FromEdges(5, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5},
	})
}

func testServer(t *testing.T, withPath bool) (*httptest.Server, *graph.Graph) {
	t.Helper()
	g := testGraph()
	var beside *graph.Graph
	if withPath {
		beside = g
	}
	s := NewPending(nil)
	s.Publish(pll.Build(g, pll.Options{}), beside, "")
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, g
}

func getJSON(t *testing.T, url string, out interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestQueryEndpoint(t *testing.T) {
	ts, g := testServer(t, false)
	var resp queryResponse
	if code := getJSON(t, ts.URL+"/query?s=0&t=3", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	want := sssp.Query(g, 0, 3)
	if resp.Dist != int64(want) || !resp.Reachable {
		t.Fatalf("resp = %+v, want dist %d", resp, want)
	}
	// Unreachable pair encodes dist -1.
	if code := getJSON(t, ts.URL+"/query?s=0&t=4", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Dist != -1 || resp.Reachable {
		t.Fatalf("unreachable resp = %+v", resp)
	}
}

func TestQueryValidation(t *testing.T) {
	ts, _ := testServer(t, false)
	for _, q := range []string{
		"/query?t=1",      // missing s
		"/query?s=0",      // missing t
		"/query?s=x&t=1",  // non-numeric
		"/query?s=99&t=1", // out of range
		"/query?s=-1&t=1", // negative
	} {
		var e map[string]string
		if code := getJSON(t, ts.URL+q, &e); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, code)
		}
		if e["error"] == "" {
			t.Errorf("%s: missing error message", q)
		}
	}
	resp, err := http.Post(ts.URL+"/query?s=0&t=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /query: status %d, want 405", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts, g := testServer(t, false)
	body, _ := json.Marshal(batchRequest{Pairs: [][2]graph.Vertex{{0, 3}, {3, 0}, {0, 4}, {2, 2}}})
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	want03 := int64(sssp.Query(g, 0, 3))
	if len(out.Dists) != 4 || out.Dists[0] != want03 || out.Dists[1] != want03 ||
		out.Dists[2] != -1 || out.Dists[3] != 0 {
		t.Fatalf("batch = %v", out.Dists)
	}
}

func TestBatchValidation(t *testing.T) {
	ts, _ := testServer(t, false)
	for name, body := range map[string]string{
		"bad-json":     "{nope",
		"out-of-range": `{"pairs":[[0,99]]}`,
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	// GET not allowed.
	resp, err := http.Get(ts.URL + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /batch: status %d", resp.StatusCode)
	}
}

func TestPathEndpoint(t *testing.T) {
	ts, g := testServer(t, true)
	var resp pathResponse
	if code := getJSON(t, ts.URL+"/path?s=0&t=3", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Dist != int64(sssp.Query(g, 0, 3)) {
		t.Fatalf("path dist = %d", resp.Dist)
	}
	if len(resp.Path) != 4 || resp.Path[0] != 0 || resp.Path[3] != 3 {
		t.Fatalf("path = %v", resp.Path)
	}
	// Unreachable.
	if code := getJSON(t, ts.URL+"/path?s=0&t=4", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Dist != -1 || resp.Path != nil {
		t.Fatalf("unreachable path = %+v", resp)
	}
}

func TestPathWithoutIndex(t *testing.T) {
	ts, _ := testServer(t, false)
	var e map[string]string
	if code := getJSON(t, ts.URL+"/path?s=0&t=3", &e); code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", code)
	}
}

// A graph published beside an index of another size is not the graph
// indexed: Publish drops it, and /path answers 404 — not a 500 from a
// walk that asks for vertex 5 of a 4-vertex graph.
func TestPathGraphOfAnotherSize(t *testing.T) {
	s := NewPending(nil)
	s.Publish(pll.Build(lineGraph(6), pll.Options{}), lineGraph(4), "")
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	var e map[string]string
	if code := getJSON(t, ts.URL+"/path?s=0&t=5", &e); code != http.StatusNotFound {
		t.Fatalf("/path with a 4-vertex graph beside a 6-vertex index: status %d (%v), want 404", code, e)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK || st.HasPathIndex {
		t.Fatalf("stats: status %d, %+v", code, st)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := testServer(t, true)
	var resp statsResponse
	if code := getJSON(t, ts.URL+"/stats", &resp); code != 200 {
		t.Fatalf("status %d", code)
	}
	if resp.Vertices != 5 || resp.Entries < 5 || !resp.HasPathIndex {
		t.Fatalf("stats = %+v", resp)
	}
}

func TestConcurrentQueries(t *testing.T) {
	ts, _ := testServer(t, false)
	done := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(i int) {
			var resp queryResponse
			url := fmt.Sprintf("%s/query?s=%d&t=%d", ts.URL, i%4, (i+1)%4)
			r, err := http.Get(url)
			if err != nil {
				done <- err
				return
			}
			defer r.Body.Close()
			done <- json.NewDecoder(r.Body).Decode(&resp)
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// do issues a method/path request and returns the status code.
func do(t *testing.T, method, url string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestMethodNotAllowedEverywhere names every registered route, so a
// route the server stops registering, or registers outside handle, fails
// here; GET of a path no file registers (/knn) answers 404.
func TestMethodNotAllowedEverywhere(t *testing.T) {
	ts, _ := testServer(t, true)
	cases := map[string]string{
		"/query?s=0&t=1": http.MethodPost,
		"/batch":         http.MethodGet,
		"/path?s=0&t=1":  http.MethodDelete,
		"/stats":         http.MethodPut,
		"/update":        http.MethodGet,
		"/reload":        http.MethodGet,
		"/readyz":        http.MethodPost,
		"/metrics":       http.MethodPost,
		"/healthz":       http.MethodPost,
		"/debug/slow":    http.MethodPost,
		"/debug/trace":   http.MethodPost,
		"/debug/explain": http.MethodPost,
		"/debug/health":  http.MethodPost,
		"/debug/bundle":  http.MethodPost,
	}
	for path, method := range cases {
		if code := do(t, method, ts.URL+path, nil); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", method, path, code)
		}
	}
	if code := do(t, http.MethodGet, ts.URL+"/knn?s=0&k=1", nil); code != http.StatusNotFound {
		t.Errorf("GET /knn: status %d, want 404", code)
	}
}

func TestBatchOversizedBody(t *testing.T) {
	ts, _ := testServer(t, false)
	// A valid prefix that keeps the decoder reading past the byte limit
	// (whitespace: pairs would run into the pair limit first, a 400).
	body := append([]byte(`{"pairs":[`), bytes.Repeat([]byte(" "), maxBatchBytes)...)
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e["error"] == "" {
		t.Fatal("missing error message")
	}
}

func TestBatchPairOutOfRange(t *testing.T) {
	ts, _ := testServer(t, false)
	for name, body := range map[string]string{
		"too-big":  `{"pairs":[[0,1],[0,99]]}`,
		"negative": `{"pairs":[[-1,0]]}`,
	} {
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestHealthzEndpoint(t *testing.T) {
	ts, _ := testServer(t, false)
	var resp map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp["status"] != "ok" {
		t.Fatalf("healthz = %v", resp)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := testServer(t, false)
	// Two good queries, one bad (400), one bad method (405).
	var q queryResponse
	getJSON(t, ts.URL+"/query?s=0&t=1", &q)
	getJSON(t, ts.URL+"/query?s=1&t=2", &q)
	var e map[string]string
	getJSON(t, ts.URL+"/query?s=99&t=1", &e)
	do(t, http.MethodPost, ts.URL+"/query?s=0&t=1", nil)

	var snap metrics.Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if got := snap.Counters["http.requests.query"]; got != 4 {
		t.Errorf("requests.query = %d, want 4", got)
	}
	if got := snap.Counters["http.errors.query"]; got != 2 {
		t.Errorf("errors.query = %d, want 2", got)
	}
	h, ok := snap.Histograms["http.latency_us.query"]
	if !ok || h.Count != 4 {
		t.Fatalf("latency histogram = %+v (ok=%v), want count 4", h, ok)
	}
	var bucketed int64
	for _, b := range h.Buckets {
		bucketed += b.Count
	}
	if bucketed != h.Count {
		t.Errorf("bucket counts sum to %d, histogram count %d", bucketed, h.Count)
	}
	if _, ok := snap.Gauges["http.inflight"]; !ok {
		t.Error("missing http.inflight gauge")
	}
	// The /metrics request itself was counted as in progress.
	if got := snap.Counters["http.requests.metrics"]; got != 1 {
		t.Errorf("requests.metrics = %d, want 1", got)
	}
}
