package server

// Tests for the living-graph serving surface: POST /update routed
// through a real compact.Pipeline, the /stats wal section, and the
// cache bypass that keeps mutating distances exact.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"parapll/internal/compact"
	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/sssp"
	"parapll/internal/wal"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within deadline")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// liveServer boots a server in living-graph mode over a small graph,
// mirroring cmd/parapll-server's prepareLive wiring.
func liveServer(t *testing.T, compactEvery int) (*httptest.Server, *Server, *compact.Pipeline, *graph.Graph) {
	t.Helper()
	g := graph.FromEdges(6, []graph.Edge{
		{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}, {U: 2, V: 3, W: 5}, {U: 3, V: 4, W: 2},
	}) // vertex 5 isolated
	s := NewPending(&Options{Loader: fileio.LoadIndex})
	var pipe *compact.Pipeline
	pipe, err := compact.Open(compact.Options{
		Dir: t.TempDir(), Graph: g, CompactEvery: compactEvery,
		OnPublish: func(compact.Report) {
			if _, err := s.Reload(pipe.IndexPath()); err != nil {
				t.Errorf("publishing compaction: %v", err)
			}
		},
	})
	if err != nil {
		t.Fatalf("compact.Open: %v", err)
	}
	t.Cleanup(func() { pipe.Close() })
	idx, err := fileio.LoadIndex(pipe.IndexPath())
	if err != nil {
		t.Fatal(err)
	}
	s.PublishLive(pipe, idx, pipe.IndexPath())
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s, pipe, g
}

func postUpdate(t *testing.T, url string, u, v, w int64) (int, map[string]interface{}) {
	t.Helper()
	body, _ := json.Marshal(map[string]int64{"u": u, "v": v, "w": w})
	resp, err := http.Post(url+"/update", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]interface{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /update reply: %v", err)
	}
	return resp.StatusCode, out
}

func TestUpdateEndpoint(t *testing.T) {
	ts, _, pipe, g := liveServer(t, 0)

	// 0 and 4 are 14 apart; a direct edge shortens them to 1.
	var q struct {
		Dist int64 `json:"dist"`
	}
	if code := getJSON(t, ts.URL+"/query?s=0&t=4", &q); code != http.StatusOK || q.Dist != 14 {
		t.Fatalf("before update: code %d dist %d", code, q.Dist)
	}
	code, out := postUpdate(t, ts.URL, 0, 4, 1)
	if code != http.StatusOK {
		t.Fatalf("/update = %d: %v", code, out)
	}
	if out["wal_records"].(float64) != 1 {
		t.Fatalf("wal_records = %v, want 1", out["wal_records"])
	}
	if code := getJSON(t, ts.URL+"/query?s=0&t=4", &q); code != http.StatusOK || q.Dist != 1 {
		t.Fatalf("after update: code %d dist %d, want 1", code, q.Dist)
	}
	// The previously isolated vertex becomes reachable.
	if code, _ := postUpdate(t, ts.URL, 5, 0, 7); code != http.StatusOK {
		t.Fatalf("second update rejected: %d", code)
	}
	cur := graph.FromEdges(g.NumVertices(), append(g.Edges(),
		graph.Edge{U: 0, V: 4, W: 1}, graph.Edge{U: 5, V: 0, W: 7}))
	for s := graph.Vertex(0); int(s) < cur.NumVertices(); s++ {
		want := sssp.Dijkstra(cur, s)
		for u := graph.Vertex(0); int(u) < cur.NumVertices(); u++ {
			if got := pipe.Query(s, u); got != want[u] {
				t.Fatalf("pipe.Query(%d,%d) = %d, want %d", s, u, got, want[u])
			}
		}
	}
}

func TestUpdateValidation(t *testing.T) {
	ts, _, _, _ := liveServer(t, 0)
	cases := []struct {
		u, v, w int64
		code    int
	}{
		{0, 0, 1, http.StatusBadRequest},                // self loop
		{0, 99, 1, http.StatusBadRequest},               // out of range
		{-1, 2, 1, http.StatusBadRequest},               // negative
		{0, 1, 0, http.StatusBadRequest},                // zero weight
		{0, 1, int64(graph.Inf), http.StatusBadRequest}, // Inf
		{0, 1, 1 << 40, http.StatusBadRequest},          // beyond uint32
	}
	for _, c := range cases {
		if code, out := postUpdate(t, ts.URL, c.u, c.v, c.w); code != c.code {
			t.Errorf("update(%d,%d,%d) = %d (%v), want %d", c.u, c.v, c.w, code, out, c.code)
		}
	}
	// A body that is not exactly one whole edge is refused before the
	// log sees it: a member left out would be logged as 0, and a logged
	// edge is never deleted.
	for _, body := range []string{
		`{"u":1,"to":3,"w":1}`,         // v missing, unknown member
		`{"u":1,"v":3}`,                // w missing
		`{"v":3,"w":1}`,                // u missing
		`{"u":1,"v":3,"w":1,"x":0}`,    // unknown member
		`{"u":1,"v":3,"w":1} trailing`, // bytes after the object
		`{"u":1,"v":3,"w":1}{"u":1}`,   // a second value
		`{"u":1,"v":3,"w":1}}`,         // a stray delimiter
		`null`,                         // no object
		`{"u":null,"v":3,"w":1}`,       // null member
		`{"u":1,"v":3,"w":1.5}`,        // not an integer
		``,                             // empty
	} {
		resp, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("/update %q = %d, want 400", body, resp.StatusCode)
		}
	}
	var stats struct {
		Wal *compact.Stats `json:"wal"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK || stats.Wal == nil || stats.Wal.WALRecords != 0 {
		t.Fatalf("/stats after refused updates = %d, wal %+v; want 200 and no WAL records", code, stats.Wal)
	}
}

// failedLogUpdater is a pipeline whose WAL has failed: Update returns
// and Stats reports what compact.Pipeline's do once wal.Log.Append has
// seen a write or fsync error (wal's TestFailedSyncPoisonsLog and
// compact's TestCompactOnFailedLog produce the real one).
type failedLogUpdater struct{ *compact.Pipeline }

var errLogFailed = fmt.Errorf("%w: fsync of wal.log: invalid argument", wal.ErrFailed)

func (failedLogUpdater) Update(u, v graph.Vertex, w graph.Dist) error {
	return fmt.Errorf("compact: durable append failed, insert not applied: %w", errLogFailed)
}

func (f failedLogUpdater) Stats() compact.Stats {
	st := f.Pipeline.Stats()
	st.WALFailed = errLogFailed.Error()
	return st
}

// TestUpdateOnFailedLog: an insert the log can no longer make durable
// is the server's fault and not for ever - 503, not 500 - and is not
// applied; /readyz and /stats say why; reads keep being served.
func TestUpdateOnFailedLog(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{U: 0, V: 1, W: 3}, {U: 1, V: 2, W: 4}})
	pipe, err := compact.Open(compact.Options{Dir: t.TempDir(), Graph: g})
	if err != nil {
		t.Fatalf("compact.Open: %v", err)
	}
	t.Cleanup(func() { pipe.Close() })
	s := NewPending(nil)
	idx, err := fileio.LoadIndex(pipe.IndexPath())
	if err != nil {
		t.Fatal(err)
	}
	s.PublishLive(pipe, idx, pipe.IndexPath())
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	var ready map[string]any
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusOK {
		t.Fatalf("/readyz on the healthy pipeline = %d (%v), want 200", code, ready)
	}
	s.PublishLive(failedLogUpdater{pipe}, idx, pipe.IndexPath())
	if code, out := postUpdate(t, ts.URL, 0, 3, 1); code != http.StatusServiceUnavailable {
		t.Fatalf("/update on a failed log = %d (%v), want 503", code, out)
	}
	if code := getJSON(t, ts.URL+"/readyz", &ready); code != http.StatusServiceUnavailable ||
		ready["status"] != "wal failed" || ready["reason"] != errLogFailed.Error() {
		t.Fatalf("/readyz on a failed log = %d %v, want 503, \"wal failed\" and the reason", code, ready)
	}
	var stats struct {
		Wal *compact.Stats `json:"wal"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK || stats.Wal == nil || stats.Wal.WALFailed != errLogFailed.Error() {
		t.Fatalf("/stats on a failed log = %d, wal %+v; want 200 and wal_failed set", code, stats.Wal)
	}
	var q queryResponse
	if code := getJSON(t, ts.URL+"/query?s=0&t=2", &q); code != http.StatusOK || q.Dist != 7 {
		t.Fatalf("/query after the refused insert = %d, dist %d; want 200, 7", code, q.Dist)
	}
}

// TestUpdateAnswersBySnapshot: /update reads the updater from the
// snapshot it loaded — 503 while no snapshot is published (a -wal server
// replaying its log at boot), 412 on a static snapshot, 200 on a living
// one.
func TestUpdateAnswersBySnapshot(t *testing.T) {
	pending := httptest.NewServer(NewPending(nil))
	t.Cleanup(pending.Close)
	static, _ := testServer(t, false)
	living, _, _, _ := liveServer(t, 0)
	for _, c := range []struct {
		name string
		url  string
		want int
	}{
		{"pending", pending.URL, http.StatusServiceUnavailable},
		{"static", static.URL, http.StatusPreconditionFailed},
		{"living", living.URL, http.StatusOK},
	} {
		if code, out := postUpdate(t, c.url, 0, 2, 1); code != c.want {
			t.Errorf("%s: /update = %d (%v), want %d", c.name, code, out, c.want)
		}
	}
}

// TestLiveReloadRefusesForeignFile: a living server reloads its own
// checkpoint (what a compaction publishes, and SIGHUP) and refuses any
// other file with 409, so /knn, explain and /stats never describe an
// index of another graph beside the pipeline.
func TestLiveReloadRefusesForeignFile(t *testing.T) {
	ts, s, pipe, _ := liveServer(t, 0)
	gen := s.Generation()
	foreign := saveLineIndex(t, t.TempDir(), 3)
	if _, err := s.Reload(foreign); !errors.Is(err, ErrLiveReload) {
		t.Fatalf("Reload(%s) = %v, want ErrLiveReload", foreign, err)
	}
	if code, _ := postReload(t, ts.URL, foreign); code != http.StatusConflict {
		t.Fatalf("POST /reload of a foreign file = %d, want 409", code)
	}
	for _, q := range []string{"/knn?s=4&k=2", "/debug/explain?s=4&t=1"} {
		if code := getJSON(t, ts.URL+q, new(map[string]any)); code != http.StatusOK {
			t.Fatalf("%s after the refused reload = %d", q, code)
		}
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK || st.Vertices != 6 || st.Generation != gen || st.Source != pipe.IndexPath() {
		t.Fatalf("/stats after the refused reload = %d %+v, want the checkpoint at generation %d", code, st, gen)
	}
	if got := s.ReloadFailures().Value(); got != 0 {
		t.Fatalf("reload failures = %d after a refusal, want 0", got)
	}
	// Its own checkpoint reloads, by path and by an empty body, and the
	// new generation is still living.
	if code, out := postReload(t, ts.URL, pipe.IndexPath()); code != http.StatusOK || out.Generation != gen+1 {
		t.Fatalf("reload of the checkpoint = %d %+v", code, out)
	}
	if code, out := postReload(t, ts.URL, ""); code != http.StatusOK || out.Generation != gen+2 {
		t.Fatalf("empty reload = %d %+v", code, out)
	}
	if code, out := postUpdate(t, ts.URL, 0, 4, 1); code != http.StatusOK {
		t.Fatalf("/update after the reloads = %d (%v)", code, out)
	}
}

func TestStatsAndMetricsExposeWAL(t *testing.T) {
	ts, _, pipe, _ := liveServer(t, 0)
	for i := int64(0); i < 3; i++ {
		if code, _ := postUpdate(t, ts.URL, i, i+1, 9); code != http.StatusOK {
			t.Fatalf("update %d rejected", i)
		}
	}
	var stats struct {
		Wal *compact.Stats `json:"wal"`
	}
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	// Edges heavier than the paths they parallel install nothing.
	if stats.Wal == nil || stats.Wal.WALRecords != 3 || stats.Wal.DeltaEntries != 0 {
		t.Fatalf("stats.wal = %+v, want 3 records and an empty delta", stats.Wal)
	}
	if code, _ := postUpdate(t, ts.URL, 4, 5, 1); code != http.StatusOK { // reaches isolated 5
		t.Fatal("update {4,5} rejected")
	}
	if getJSON(t, ts.URL+"/stats", &stats); stats.Wal.DeltaEntries == 0 {
		t.Fatalf("stats.wal = %+v after joining vertex 5 on, want delta entries", stats.Wal)
	}
	var m map[string]interface{}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	gauges, ok := m["gauges"].(map[string]interface{})
	if !ok {
		t.Fatalf("metrics have no gauges: %v", m)
	}
	if gauges["wal.records"].(float64) != 4 || gauges["compact.delta_entries"].(float64) != float64(stats.Wal.DeltaEntries) {
		t.Fatalf("wal.records / compact.delta_entries gauges = %v / %v, want 4 / %d",
			gauges["wal.records"], gauges["compact.delta_entries"], stats.Wal.DeltaEntries)
	}
	if _, err := pipe.Compact(); err != nil {
		t.Fatal(err)
	}
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatal("re-scrape failed")
	}
	gauges = m["gauges"].(map[string]interface{})
	if gauges["wal.records"].(float64) != 0 || gauges["compact.generation"].(float64) != 1 || gauges["compact.delta_entries"].(float64) != 0 {
		t.Fatalf("post-compaction gauges = %v", gauges)
	}
}

// TestCompactionPublishesGeneration drives the full rolling-publish
// flow: threshold-triggered background compaction republishes the
// checkpoint through /reload, bumping the snapshot generation while
// queries stay exact throughout.
func TestCompactionPublishesGeneration(t *testing.T) {
	ts, s, pipe, g := liveServer(t, 3)
	gen0 := s.Generation()
	edges := []graph.Edge{{U: 0, V: 3, W: 1}, {U: 1, V: 4, W: 1}, {U: 2, V: 5, W: 1}}
	for _, e := range edges {
		if code, _ := postUpdate(t, ts.URL, int64(e.U), int64(e.V), int64(e.W)); code != http.StatusOK {
			t.Fatalf("update %v rejected", e)
		}
	}
	waitFor(t, func() bool { return pipe.Generation() >= 1 && s.Generation() > gen0 })
	cur := graph.FromEdges(g.NumVertices(), append(g.Edges(), edges...))
	var q struct {
		Dist int64 `json:"dist"`
	}
	for s0 := graph.Vertex(0); int(s0) < cur.NumVertices(); s0++ {
		want := sssp.Dijkstra(cur, s0)
		for u := graph.Vertex(0); int(u) < cur.NumVertices(); u++ {
			url := fmt.Sprintf("%s/query?s=%d&t=%d", ts.URL, s0, u)
			if code := getJSON(t, url, &q); code != http.StatusOK {
				t.Fatalf("query %d,%d = %d", s0, u, code)
			}
			wantD := int64(-1)
			if want[u] != graph.Inf {
				wantD = int64(want[u])
			}
			if q.Dist != wantD {
				t.Fatalf("query(%d,%d) = %d, want %d", s0, u, q.Dist, wantD)
			}
		}
	}
}

// TestTruncatedLiveIndexUpdateAnswers500 cuts a living server's
// checkpoint index to its first page after the pipeline mapped it, as
// TestTruncatedIndexAnswers500 cuts a static one. An insert's repair
// reads the mapped base after its record is durable, so /update faults
// there; the fault must be a 500 (not SIGBUS ending the process) that
// says the edge is logged and applied on restart, and it must not leave
// the writer mutex held. The live index may now hold half the insert, so
// the log is failed: a second /update answers 503 and is not logged,
// /readyz answers 503 and /stats names the failure, and the pipeline's
// Close returns. A reopen over an intact copy of the checkpoint replays
// the logged edge and answers exactly with it.
func TestTruncatedLiveIndexUpdateAnswers500(t *testing.T) {
	const n = 500
	g := cuttableGraph(n)
	dir := t.TempDir()
	pipe, err := compact.Open(compact.Options{Dir: dir, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(pipe.IndexPath())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := fileio.LoadIndex(pipe.IndexPath())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { idx.Close() })
	s := NewPending(nil)
	s.PublishLive(pipe, idx, pipe.IndexPath())
	if err := os.Truncate(pipe.IndexPath(), 4096); err != nil {
		t.Fatal(err)
	}
	within := func(what string, f func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return within 10s", what)
		}
	}
	serve := func(method, url, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, url, strings.NewReader(body)))
		return rec
	}
	logged := graph.Edge{U: n - 1, V: n - 2, W: 1}
	var rec *httptest.ResponseRecorder
	within("/update 1", func() {
		rec = serve("POST", "/update", fmt.Sprintf(`{"u":%d,"v":%d,"w":%d}`, logged.U, logged.V, logged.W))
	})
	if body := rec.Body.String(); rec.Code != http.StatusInternalServerError ||
		!strings.Contains(body, "invalid memory address") || !strings.Contains(body, "logged; applied on restart") {
		t.Fatalf("/update 1 over the truncated index: status %d body %q, want 500 naming the memory fault and the logged edge", rec.Code, body)
	}
	within("/update 2", func() { rec = serve("POST", "/update", fmt.Sprintf(`{"u":%d,"v":%d,"w":1}`, n-3, n-4)) })
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "wal: log failed") {
		t.Fatalf("/update 2 after a logged insert failed to apply: status %d body %q, want 503 naming the failed log", rec.Code, rec.Body.String())
	}
	if within("/readyz", func() { rec = serve("GET", "/readyz", "") }); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz on the failed log: status %d, want 503", rec.Code)
	}
	within("/stats", func() { rec = serve("GET", "/stats", "") })
	var stats struct {
		Wal *compact.Stats `json:"wal"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); rec.Code != http.StatusOK || err != nil || stats.Wal == nil ||
		stats.Wal.WALRecords != 1 || !strings.Contains(stats.Wal.WALFailed, "applied on restart") {
		t.Fatalf("/stats after the faults: status %d, wal %+v (%v); want 200, one record and the failure", rec.Code, stats.Wal, err)
	}
	within("Close", func() { err = pipe.Close() })
	if err != nil {
		t.Fatal(err)
	}

	// Restart over the checkpoint as it was before the cut: the one logged
	// edge replays, and the index answers as Dijkstra does with it.
	if err := os.WriteFile(pipe.IndexPath(), intact, 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := compact.Open(compact.Options{Dir: dir, Graph: g})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if st := again.Stats(); st.WALRecords != 1 {
		t.Fatalf("reopened pipeline replays %d records, want 1", st.WALRecords)
	}
	edges := append(g.Edges(), logged)
	want := graph.FromEdges(n, edges)
	for _, s := range []graph.Vertex{logged.U, logged.V, 0, n / 2} {
		dist := sssp.Dijkstra(want, s)
		for t2 := graph.Vertex(0); t2 < n; t2++ {
			if got := again.Query(s, t2); got != dist[t2] {
				t.Fatalf("reopened: d(%d,%d) = %d, Dijkstra with the logged edge says %d", s, t2, got, dist[t2])
			}
		}
	}
}
