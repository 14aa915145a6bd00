package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/metrics"
	"parapll/internal/pll"
)

func TestBatchThreadsOption(t *testing.T) {
	want := 4
	if p := runtime.GOMAXPROCS(0); p < want {
		want = p
	}
	for _, c := range []struct {
		o    *Options
		want int
	}{
		{nil, want},
		{&Options{BatchThreads: 9}, 9},
		{&Options{}, want},
		{&Options{BatchThreads: -1}, want},
	} {
		if got := NewPending(c.o).opt.BatchThreads; got != c.want {
			t.Errorf("batch threads with %+v = %d, want %d", c.o, got, c.want)
		}
	}
}

func TestCacheServesAndCounts(t *testing.T) {
	s := NewPending(nil)
	s.SetCacheEntries(1024)
	s.Publish(pll.Build(lineGraph(6), pll.Options{}), nil, "")
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Same pair twice, plus the reversed pair: the second and third must
	// hit (label.Index is symmetric, and Publish wraps it that way).
	for _, q := range []string{"/query?s=0&t=5", "/query?s=0&t=5", "/query?s=5&t=0"} {
		var resp queryResponse
		if code := getJSON(t, ts.URL+q, &resp); code != http.StatusOK || resp.Dist != 5 {
			t.Fatalf("%s: status %d dist %d", q, code, resp.Dist)
		}
	}
	st := s.cache.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 1 miss then 2 hits", st)
	}

	// /stats surfaces the same numbers.
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	if stats.Cache == nil || stats.Cache.Hits != 2 || stats.Cache.Misses != 1 {
		t.Fatalf("/stats cache = %+v", stats.Cache)
	}

	// /metrics carries the live counters wired by SetCacheEntries.
	var snap metrics.Snapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if snap.Counters["cache.hits"] != 2 || snap.Counters["cache.misses"] != 1 {
		t.Fatalf("metrics counters = hits %d misses %d, want 2/1",
			snap.Counters["cache.hits"], snap.Counters["cache.misses"])
	}
}

func TestCacheDisabledByDefault(t *testing.T) {
	s := NewPending(nil)
	s.Publish(pll.Build(lineGraph(4), pll.Options{}), nil, "")
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	var stats statsResponse
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats: status %d", code)
	}
	if stats.Cache != nil {
		t.Fatalf("cache stats present without SetCacheEntries: %+v", stats.Cache)
	}
	if s.cache != nil {
		t.Fatal("cache non-nil without SetCacheEntries")
	}
}

// weightedLineIndex builds a line graph 0-1-...-(n-1) with edge weight
// w, so d(0, n-1) = (n-1)*w distinguishes indexes of identical shape.
func weightedLineIndex(n int, w graph.Dist) *label.Index {
	edges := make([]graph.Edge, n-1)
	for i := range edges {
		edges[i] = graph.Edge{U: graph.Vertex(i), V: graph.Vertex(i + 1), W: w}
	}
	return pll.Build(graph.FromEdges(n, edges), pll.Options{})
}

// TestCacheReloadNeverStale is the correctness crux of the distance
// cache: a /reload hot-swap bumps the snapshot generation, and because
// cache keys include the generation, a post-swap query must never be
// answered from a pre-swap entry. Two indexes share vertex ids but
// differ in edge weight, so d(0,5) names the one that answered: serving
// the other's distance is exactly the staleness bug. One is built in
// process and Published (heap), the other a file /reload maps. Run under
// -race this also hammers cache Put/Get against the swap.
func TestCacheReloadNeverStale(t *testing.T) {
	path := filepath.Join(t.TempDir(), "line6-w2.idx")
	if err := fileio.SaveIndex(fileio.OS, path, weightedLineIndex(6, 2)); err != nil { // d(0,5) = 10
		t.Fatal(err)
	}

	s := NewPending(&Options{Loader: fileio.LoadIndex})
	s.SetCacheEntries(4096)
	s.Publish(weightedLineIndex(6, 1), nil, "") // d(0,5) = 5
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)

	// Background hammer: keeps the cache hot on the probe pair and its
	// neighbors across every swap. Answers must always come from ONE of
	// the two artifacts — anything else is corruption.
	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tt := 1 + i%5
				resp, err := http.Get(fmt.Sprintf("%s/query?s=0&t=%d", ts.URL, tt))
				if err != nil {
					bad.Add(1)
					return
				}
				var q queryResponse
				decErr := json.NewDecoder(resp.Body).Decode(&q)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || decErr != nil ||
					(q.Dist != int64(tt) && q.Dist != int64(2*tt)) {
					bad.Add(1)
				}
			}
		}()
	}

	// Foreground: swap between the two and assert — immediately after
	// each swap, with the cache fully warm on the old generation — that
	// the probe pair answers from the new one.
	for i := 0; i < 30; i++ {
		want := int64(10)
		if i%2 == 0 {
			if code, _ := postReload(t, ts.URL, path); code != http.StatusOK {
				t.Fatalf("reload %d: status %d", i, code)
			}
		} else {
			s.Publish(weightedLineIndex(6, 1), nil, "")
			want = 5
		}
		for rep := 0; rep < 3; rep++ { // repeat: hit the fresh generation's cache too
			var q queryResponse
			if code := getJSON(t, ts.URL+"/query?s=0&t=5", &q); code != http.StatusOK {
				t.Fatalf("query after swap %d: status %d", i, code)
			}
			if q.Dist != want {
				t.Fatalf("STALE CACHE after swap %d: d(0,5) = %d, want %d", i, q.Dist, want)
			}
		}
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d bad hammer responses", n)
	}
	if st := s.cache.Stats(); st.Hits == 0 {
		t.Fatalf("hammer produced no cache hits: %+v", st)
	}
}

func TestBatchUsesConfiguredThreads(t *testing.T) {
	// Behavioral smoke: /batch answers identically for 1 and many
	// configured threads.
	idx := pll.Build(lineGraph(40), pll.Options{})
	pairs := make([][2]graph.Vertex, 100)
	for i := range pairs {
		pairs[i] = [2]graph.Vertex{graph.Vertex(i % 40), graph.Vertex((i * 7) % 40)}
	}
	run := func(threads int) []int64 {
		ts := httptest.NewServer(serverWithCache(idx, 256, &Options{BatchThreads: threads}))
		defer ts.Close()
		body, _ := json.Marshal(batchRequest{Pairs: pairs})
		resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b batchResponse
		if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
			t.Fatal(err)
		}
		return b.Dists
	}
	one := run(1)
	eight := run(8)
	for i := range one {
		if one[i] != eight[i] {
			t.Fatalf("pair %d: threads=1 gives %d, threads=8 gives %d", i, one[i], eight[i])
		}
	}
}
