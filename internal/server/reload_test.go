package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
	"parapll/internal/trace"
)

// lineGraph builds a path graph 0-1-...-(n-1) with unit weights, so
// d(0, n-1) = n-1 identifies which index generation answered.
func lineGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.Vertex(i), V: graph.Vertex(i + 1), W: 1}
	}
	return graph.FromEdges(n, edges)
}

// saveLineIndex writes lineGraph(n)'s index to a file in dir, which the
// loader maps: a heap-backed snapshot is one Published from a build.
func saveLineIndex(t *testing.T, dir string, n int) string {
	t.Helper()
	x := pll.Build(lineGraph(n), pll.Options{})
	path := filepath.Join(dir, fmt.Sprintf("line%d.idx", n))
	if err := fileio.SaveIndex(fileio.OS, path, x); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadyzPendingToReady(t *testing.T) {
	s := NewPending(nil)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	var body map[string]interface{}
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before publish: status %d, want 503", code)
	}
	if body["status"] != "loading" {
		t.Fatalf("readyz body = %v", body)
	}
	// Query endpoints also refuse with 503 while pending; /healthz is up.
	var e map[string]string
	if code := getJSON(t, ts.URL+"/query?s=0&t=1", &e); code != http.StatusServiceUnavailable {
		t.Fatalf("/query before publish: status %d, want 503", code)
	}
	if code := getJSON(t, ts.URL+"/healthz", &e); code != http.StatusOK {
		t.Fatalf("/healthz before publish: status %d, want 200", code)
	}

	gen := s.Publish(pll.Build(lineGraph(4), pll.Options{}), nil, "")
	if gen != 1 {
		t.Fatalf("first publish generation = %d, want 1", gen)
	}
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusOK {
		t.Fatalf("/readyz after publish: status %d, want 200", code)
	}
	if body["status"] != "ready" || body["generation"].(float64) != 1 {
		t.Fatalf("readyz body = %v", body)
	}
	var q queryResponse
	if code := getJSON(t, ts.URL+"/query?s=0&t=3", &q); code != http.StatusOK || q.Dist != 3 {
		t.Fatalf("/query after publish: status %d, dist %d", code, q.Dist)
	}
}

func postReload(t *testing.T, url, path string) (int, reloadResponse) {
	t.Helper()
	var body io.Reader
	if path != "" {
		b, _ := json.Marshal(reloadRequest{Path: path})
		body = bytes.NewReader(b)
	}
	resp, err := http.Post(url+"/reload", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out reloadResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode, out
}

func TestReloadEndpoint(t *testing.T) {
	dir := t.TempDir()
	big := saveLineIndex(t, dir, 9)

	s := NewPending(&Options{Loader: fileio.LoadIndex})
	s.Publish(pll.Build(lineGraph(4), pll.Options{}), nil, "")
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Reload from the built (heap) index onto a file (mapped): generation
	// bumps, stats flip to the new index (size and format prove the swap
	// happened).
	var st statsResponse
	if c := getJSON(t, ts.URL+"/stats", &st); c != http.StatusOK || st.Format != label.FormatMemory {
		t.Fatalf("stats before reload: status %d, %+v", c, st)
	}
	code, out := postReload(t, ts.URL, big)
	if code != http.StatusOK {
		t.Fatalf("reload: status %d", code)
	}
	if out.Generation != 2 || out.Vertices != 9 || out.Format != label.FormatMmap {
		t.Fatalf("reload response = %+v", out)
	}
	if c := getJSON(t, ts.URL+"/stats", &st); c != http.StatusOK {
		t.Fatalf("stats: status %d", c)
	}
	if st.Generation != 2 || st.Vertices != 9 || st.Format != label.FormatMmap || st.Source != big {
		t.Fatalf("stats after reload = %+v", st)
	}
	var q queryResponse
	if c := getJSON(t, ts.URL+"/query?s=0&t=8", &q); c != http.StatusOK || q.Dist != 8 {
		t.Fatalf("query after reload: status %d dist %d", c, q.Dist)
	}

	// Empty body re-reads the current source.
	code, out = postReload(t, ts.URL, "")
	if code != http.StatusOK || out.Generation != 3 || out.Source != big {
		t.Fatalf("empty reload: status %d, %+v", code, out)
	}

	// A loader failure must keep the old snapshot serving — a missing
	// file, and a file of a retired format (a PIDM version 3 header).
	retired := filepath.Join(dir, "v3.idx")
	if err := os.WriteFile(retired, append([]byte("PIDM\x03\x00\x00\x00"), make([]byte, 184)...), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{filepath.Join(dir, "missing.idx"), retired} {
		code, _ = postReload(t, ts.URL, bad)
		if code != http.StatusInternalServerError {
			t.Fatalf("reload of %s: status %d, want 500", bad, code)
		}
		if c := getJSON(t, ts.URL+"/query?s=0&t=8", &q); c != http.StatusOK || q.Dist != 8 {
			t.Fatalf("query after failed reload of %s: status %d dist %d", bad, c, q.Dist)
		}
	}
	if got := s.ReloadFailures().Value(); got != 2 {
		t.Fatalf("reload failures = %d, want 2", got)
	}
}

// The graph /path walks is not part of the artifact and the loader
// cannot rebuild it, so a reload carries it over only when re-reading the
// same artifact; after switching to a different artifact /path must 404
// rather than walk (or panic) by another graph's distances.
func TestReloadPathIndexCarryOver(t *testing.T) {
	dir := t.TempDir()
	a := saveLineIndex(t, dir, 6)
	b := saveLineIndex(t, dir, 9)

	s := NewPending(&Options{Loader: fileio.LoadIndex})
	first, err := fileio.LoadIndex(a)
	if err != nil {
		t.Fatal(err)
	}
	s.Publish(first, lineGraph(6), a)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Same artifact: the graph survives the swap.
	if code, _ := postReload(t, ts.URL, a); code != http.StatusOK {
		t.Fatalf("same-path reload: status %d", code)
	}
	var p pathResponse
	if code := getJSON(t, ts.URL+"/path?s=0&t=5", &p); code != http.StatusOK || p.Dist != 5 {
		t.Fatalf("path after same-path reload: status %d, %+v", code, p)
	}

	// Different artifact (and vertex count): the stale graph is dropped —
	// t=8 is valid in the new index but not a vertex of the old graph.
	if code, _ := postReload(t, ts.URL, b); code != http.StatusOK {
		t.Fatalf("cross-path reload: status %d", code)
	}
	var e map[string]string
	if code := getJSON(t, ts.URL+"/path?s=0&t=8", &e); code != http.StatusNotFound {
		t.Fatalf("path after cross-path reload: status %d, want 404", code)
	}
	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK || st.HasPathIndex {
		t.Fatalf("stats after cross-path reload: status %d, %+v", code, st)
	}
}

// POST /reload bounds its body like /batch does: a path payload is
// tiny, so an oversized body is rejected before it is buffered.
func TestReloadBodyTooLarge(t *testing.T) {
	dir := t.TempDir()
	path := saveLineIndex(t, dir, 4)
	s := NewPending(&Options{Loader: fileio.LoadIndex})
	s.Publish(pll.Build(lineGraph(4), pll.Options{}), nil, path)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Well-formed JSON so the decoder keeps reading until the byte cap
	// trips (junk would fail parsing before the limit is reached).
	huge := append([]byte(`{"path":"`), bytes.Repeat([]byte("x"), maxReloadBytes+1)...)
	huge = append(huge, '"', '}')
	resp, err := http.Post(ts.URL+"/reload", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized reload body: status %d, want 413", resp.StatusCode)
	}
}

func TestReloadWithoutLoader(t *testing.T) {
	ts, _ := testServer(t, false)
	code, _ := postReload(t, ts.URL, "whatever.idx")
	if code != http.StatusPreconditionFailed {
		t.Fatalf("reload without loader: status %d, want 412", code)
	}
}

func TestReloadBusy(t *testing.T) {
	dir := t.TempDir()
	path := saveLineIndex(t, dir, 4)
	block := make(chan struct{})
	entered := make(chan struct{})
	s := NewPending(&Options{Loader: func(p string) (*label.Index, error) {
		close(entered)
		<-block
		return fileio.LoadIndex(p)
	}})
	s.Publish(pll.Build(lineGraph(4), pll.Options{}), nil, path)

	done := make(chan error, 1)
	go func() {
		_, err := s.Reload(path)
		done <- err
	}()
	<-entered
	if _, err := s.Reload(path); err != ErrReloadBusy {
		t.Fatalf("concurrent reload: err = %v, want ErrReloadBusy", err)
	}
	close(block)
	if err := <-done; err != nil {
		t.Fatalf("first reload: %v", err)
	}
}

// TestHotReloadHammer swaps snapshots while queries, batches and /stats
// are in flight, each over its own mapping of one of two files, so every
// swap leaves a mapping for its last request to close. The two artifacts
// differ in vertex count and in edge weight, so a reply names the one it
// came from, and a request reading a closed mapping faults (a 500) or
// reads the other file's bytes (a wrong answer). The server's test hooks
// publish a fresh mapping of the other artifact right after each reload
// stores its snapshot and right after each request acquires one: a
// second load of s.snap anywhere in those scopes then sees another
// generation on every run, and a reference dropped before the request's
// last read unmaps its index under it, not only when the scheduler
// happens to interleave there. The test checks that
//   - every query and batch answers from one of the two artifacts;
//   - every 200 from /reload names its own generation, one no other
//     publish returned, with the source it asked for and that source's
//     vertex count;
//   - every /stats reply's generation is the one its vertex count came
//     from;
//   - after a reload, no pair cached under the old index answers with
//     its old distance.
//
// Run under -race it also proves the swap itself is data-race-free. A
// second reload races each /reload, two live trace captures race each
// other and every request is slow, so the reload and capture mutexes
// are contended too, and the slow lane is written beside its readers.
func TestHotReloadHammer(t *testing.T) {
	dir := t.TempDir()
	a, b := weightedLineIndex(6, 1), weightedLineIndex(9, 2) // d(s,t) = |s-t| and 2|s-t|
	paths := []string{filepath.Join(dir, "a.idx"), filepath.Join(dir, "b.idx")}
	for i, x := range []*label.Index{a, b} {
		if err := fileio.SaveIndex(fileio.OS, paths[i], x); err != nil {
			t.Fatal(err)
		}
	}
	mapped := func(i int) *label.Index {
		x, err := label.Open(paths[i])
		if err != nil {
			t.Error(err)
			return []*label.Index{a, b}[i]
		}
		return x
	}
	other := func(sn *snapshot) *label.Index {
		if sn.idx.NumVertices() == a.NumVertices() {
			return mapped(1)
		}
		return mapped(0)
	}
	// Every request is slow, so the query workers share the slow lane
	// beside /debug/slow readers.
	s := NewPending(&Options{Loader: fileio.LoadIndex, SlowThreshold: time.Nanosecond, Tracer: trace.New(0, 256)})
	s.SetCacheEntries(4096)

	var (
		mu       sync.Mutex
		vertices = map[uint64]int{}  // every published generation's vertex count
		returned = map[uint64]bool{} // generations Publish or Reload returned
		racing   atomic.Bool
	)
	publish := func(x *label.Index) {
		gen := s.Publish(x, nil, "")
		mu.Lock()
		returned[gen] = true
		mu.Unlock()
	}
	s.afterStore = func(sn *snapshot) {
		mu.Lock()
		vertices[sn.gen] = sn.idx.NumVertices()
		mu.Unlock()
		if sn.source != "" && racing.Load() { // a reload's snapshot
			publish(other(sn))
		}
	}
	s.afterLoad = func(sn *snapshot) {
		if racing.Load() {
			publish(other(sn))
		}
	}
	publish(a)
	racing.Store(true)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	const (
		queryWorkers = 4
		batchWorkers = 2
		reloads      = 40
	)
	var bad atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(f func() bool) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f() {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}

	// Two live trace captures contend their mutex (200, or 409 while the
	// other runs) beside readers of the slow lane.
	for _, path := range []string{"/debug/trace?sec=0.001", "/debug/trace?sec=0.001", "/debug/slow"} {
		loop(func() bool {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Error(err)
				return false
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				t.Errorf("GET %s = %d", path, resp.StatusCode)
			}
			return true
		})
	}

	for w := 0; w < queryWorkers; w++ {
		i := 0
		loop(func() bool {
			i++
			tt := int64(1 + i%5)
			resp, err := http.Get(fmt.Sprintf("%s/query?s=0&t=%d", ts.URL, tt))
			if err != nil {
				t.Error(err)
				return false
			}
			var q queryResponse
			decErr := json.NewDecoder(resp.Body).Decode(&q)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || decErr != nil || q.Dist != tt && q.Dist != 2*tt {
				bad.Add(1)
			}
			return true
		})
	}
	body, _ := json.Marshal(batchRequest{Pairs: [][2]graph.Vertex{{0, 5}, {5, 0}, {2, 2}}})
	for w := 0; w < batchWorkers; w++ {
		loop(func() bool {
			resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return false
			}
			var r batchResponse
			decErr := json.NewDecoder(resp.Body).Decode(&r)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || decErr != nil || len(r.Dists) != 3 ||
				r.Dists[0] != r.Dists[1] || r.Dists[0] != 5 && r.Dists[0] != 10 || r.Dists[2] != 0 {
				bad.Add(1)
			}
			return true
		})
	}
	var stats []statsResponse
	loop(func() bool {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Error(err)
			return false
		}
		var st statsResponse
		decErr := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || decErr != nil {
			t.Errorf("GET /stats = %d (%v)", resp.StatusCode, decErr)
			return false
		}
		stats = append(stats, st)
		return true
	})

	type reply struct {
		path string
		out  reloadResponse
	}
	var replies []reply
	for i := 0; i < reloads; i++ {
		if i%3 == 2 {
			publish(mapped(i / 3 % 2))
			continue
		}
		// A second reload races this one for the reload mutex; the loser
		// is refused as busy (409), and this one then tries again.
		raced := make(chan struct{})
		go func() {
			defer close(raced)
			if gen, err := s.Reload(paths[1]); err == nil {
				mu.Lock()
				returned[gen] = true
				mu.Unlock()
			} else if !errors.Is(err, ErrReloadBusy) {
				t.Errorf("racing reload: %v", err)
			}
		}()
		path := paths[i%3]
		code, out := postReload(t, ts.URL, path)
		<-raced
		if code == http.StatusConflict {
			code, out = postReload(t, ts.URL, path)
		}
		if code != http.StatusOK {
			t.Errorf("reload %d: status %d", i, code)
			continue
		}
		replies = append(replies, reply{path, out})
	}
	close(stop)
	wg.Wait()
	racing.Store(false)

	if n := bad.Load(); n != 0 {
		t.Fatalf("%d bad responses during hot reload", n)
	}
	mu.Lock() // the hooks ran on handler goroutines
	seen := map[uint64]bool{}
	for _, r := range replies {
		want := a.NumVertices()
		if r.path == paths[1] {
			want = b.NumVertices()
		}
		if g := r.out.Generation; returned[g] || seen[g] || r.out.Source != r.path || r.out.Vertices != want || vertices[g] != want {
			t.Errorf("/reload of %s answered %+v: generation %d has %d vertices (returned by another publish: %v, by an earlier reload: %v)",
				r.path, r.out, g, vertices[g], returned[g], seen[g])
		}
		seen[r.out.Generation] = true
	}
	if len(stats) == 0 {
		t.Fatal("no /stats replies")
	}
	for _, st := range stats {
		if vertices[st.Generation] != st.Vertices {
			t.Errorf("/stats names generation %d (%d vertices) beside %d vertices", st.Generation, vertices[st.Generation], st.Vertices)
			break
		}
	}
	publishes := uint64(len(vertices))
	mu.Unlock()
	var st statsResponse
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.Generation != publishes {
		t.Fatalf("final generation = %d, want %d (one per publish)", st.Generation, publishes)
	}

	// After a reload, no pair cached under the old index may answer with
	// its old distance: warm every pair on a, reload b, read them again.
	publish(a)
	for _, step := range []struct {
		reload string
		w      int64
	}{{"", 1}, {paths[1], 2}} {
		if step.reload != "" {
			if code, _ := postReload(t, ts.URL, step.reload); code != http.StatusOK {
				t.Fatalf("reload of %s: status %d", step.reload, code)
			}
		}
		for u := 0; u < a.NumVertices(); u++ {
			for v := 0; v < a.NumVertices(); v++ {
				var q queryResponse
				if code := getJSON(t, fmt.Sprintf("%s/query?s=%d&t=%d", ts.URL, u, v), &q); code != http.StatusOK {
					t.Fatalf("query (%d,%d): status %d", u, v, code)
				}
				if want := step.w * int64(max(u-v, v-u)); q.Dist != want {
					t.Fatalf("STALE CACHE: d(%d,%d) = %d, want %d at weight %d", u, v, q.Dist, want, step.w)
				}
			}
		}
	}
}
