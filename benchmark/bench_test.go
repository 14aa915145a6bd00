package main

import (
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parapll"
	"parapll/internal/trace"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if q1, q2, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q2 != 2 || q3 != 3 {
		t.Fatalf("quartiles of 3 values = %v %v %v", q1, q2, q3)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if q1, q2, q3 := quartiles([]float64{7}); q1 != 7 || q2 != 7 || q3 != 7 {
		t.Fatalf("quartiles of one value = %v %v %v", q1, q2, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(s-1.0) > 1e-12 {
		t.Fatalf("spread = %v, want (8.25-2.75)/5.5 = 1", s)
	}
}

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, ok := percentile(ascending(1000), 0.99); v != 990 || !ok {
		t.Fatalf("p99 of 1000 = %v ok=%v, want 990 with exactly ten beyond", v, ok)
	}
	if _, ok := percentile(ascending(999), 0.99); ok {
		t.Fatal("p99 of 999 samples has nine beyond it and must not be supported")
	}
	if v, ok := percentile(ascending(40), 0.5); v != 20 || !ok {
		t.Fatalf("p50 of 40 = %v ok=%v", v, ok)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{2000, 0.99}, {1000, 0.99}, {999, 0.90}, {100, 0.90}, {99, 0.75}, {40, 0.75}, {39, 0.50}, {7, 0.50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestWindowsReportMedianOverWindows(t *testing.T) {
	var w windows
	for _, v := range []float64{5, 1, 100, 2, 3} { // one outlier window
		w.add(v)
	}
	if w.median() != 3 {
		t.Fatalf("median over windows = %v, want 3", w.median())
	}
	lat := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if p50, p80, tail := latencyWindow(lat, 0.8); p50 != 5 || p80 != 8 || tail != 9.5 {
		t.Fatalf("latencyWindow = %v %v %v, want median 5, p80 8 and the mean beyond it, 9.5", p50, p80, tail)
	}
	if p50, pp, tail := latencyWindow([]float64{3}, 0.5); p50 != 3 || pp != 3 || tail != 3 {
		t.Fatalf("latencyWindow of one sample = %v %v %v, want 3 3 3", p50, pp, tail)
	}
	// A slow population of 1 %: the p99 is the last fast sample, the
	// tail is the slow population's mean.
	mixed := ascending(2000)
	for i := 1980; i < 2000; i++ {
		mixed[i] = 1e6
	}
	if _, p99, tail := latencyWindow(mixed, 0.99); p99 != 1980 || tail != 1e6 {
		t.Fatalf("p99 and tail of a window whose slowest 1%% is a distinct population = %v %v, want 1980 (the last fast sample) and 1e6", p99, tail)
	}
}

// ring returns a weighted cycle with a chord, small enough to reason
// about and large enough for the generators.
func ring(n int) *parapll.Graph {
	var edges []parapll.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, parapll.Edge{U: parapll.Vertex(i), V: parapll.Vertex((i + 1) % n), W: parapll.Dist(1 + i%3)})
	}
	edges = append(edges, parapll.Edge{U: 0, V: parapll.Vertex(n / 2), W: 2})
	return parapll.NewGraph(n, edges)
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	g := ring(64)
	draw := func(seed int64) (*oracle, []pair, []pair, []parapll.Edge) {
		rng := rand.New(rand.NewSource(seed))
		o := newOracle(g, 8, rng)
		ins, err := insertStream(g, 50, rng)
		if err != nil {
			t.Fatal(err)
		}
		return o, uniformPairs(o, 100, rng), newHotSet(o, 16, rng).draw(100), ins
	}
	o1, u1, h1, i1 := draw(7)
	o2, u2, h2, i2 := draw(7)
	if !reflect.DeepEqual(o1.sources, o2.sources) || !reflect.DeepEqual(u1, u2) || !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(i1, i2) {
		t.Fatal("the same seed produced different inputs")
	}
	_, u3, _, i3 := draw(8)
	if reflect.DeepEqual(u1, u3) || reflect.DeepEqual(i1, i3) {
		t.Fatal("different seeds produced the same inputs")
	}
	distinct := map[pair]bool{}
	for _, p := range h1 {
		distinct[p] = true
	}
	if len(distinct) > 16 {
		t.Fatalf("hot requests touch %d pairs, hot set is 16", len(distinct))
	}
	seen := map[[2]parapll.Vertex]bool{}
	for _, e := range i1 {
		if _, adjacent := g.HasEdge(e.U, e.V); adjacent || e.U == e.V || e.W == 0 || seen[[2]parapll.Vertex{e.U, e.V}] {
			t.Fatalf("insert %+v is a self loop, a duplicate or already an edge", e)
		}
		seen[[2]parapll.Vertex{e.U, e.V}] = true
	}
}

func TestOracleRejectsAWrongDistance(t *testing.T) {
	g := ring(32)
	rng := rand.New(rand.NewSource(1))
	o := newOracle(g, 4, rng)
	for _, p := range uniformPairs(o, 200, rng) {
		want := wireDist(parapll.QueryDirect(g, o.s(p), p.t))
		if !o.check(p, want) {
			t.Fatalf("oracle rejected the true distance %d of %v", want, p)
		}
		if o.check(p, want+1) || o.check(p, -1) {
			t.Fatalf("oracle accepted a wrong distance for %v (true %d)", p, want)
		}
	}
	// After an insert the old rows no longer hold: a shortcut 1 -> 17.
	shorter := newOracle(withEdges(g, []parapll.Edge{{U: 1, V: 17, W: 1}}), 32, rand.New(rand.NewSource(2)))
	before := newOracle(g, 32, rand.New(rand.NewSource(2)))
	changed := 0
	for src := range shorter.sources {
		for v := 0; v < 32; v++ {
			p := pair{src, parapll.Vertex(v)}
			if shorter.want(p) > before.want(p) {
				t.Fatalf("an insert lengthened %v", p)
			}
			if shorter.want(p) < before.want(p) {
				changed++
				if before.check(p, shorter.want(p)) {
					t.Fatalf("stale rows accepted the post-insert distance of %v", p)
				}
			}
		}
	}
	if changed == 0 {
		t.Fatal("the shortcut changed no distance; the test graph is wrong")
	}
}

func TestClientReusesItsConnectionAndSurvivesARestart(t *testing.T) {
	big := strings.Repeat("x", 100_000) // large enough to be sent chunked
	var handled atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handled.Add(1)
		switch r.URL.Path {
		case "/big":
			io.WriteString(w, big)
		case "/echo":
			io.Copy(w, r.Body)
		default:
			http.Error(w, "no such path", http.StatusNotFound)
		}
	})
	var conns atomic.Int32
	count := func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv := httptest.NewUnstartedServer(handler)
	srv.Config.ConnState = count
	srv.Start()
	c := newClient()
	defer c.close()
	for i := 0; i < 3; i++ {
		if code, body, err := c.do("GET", srv.URL+"/big", nil); err != nil || code != 200 || string(body) != big {
			t.Fatalf("GET /big: code %d, %d bytes, err %v", code, len(body), err)
		}
		if code, body, err := c.do("POST", srv.URL+"/echo", []byte(`{"pairs":[[1,2]]}`)); err != nil || code != 200 || string(body) != `{"pairs":[[1,2]]}` {
			t.Fatalf("POST /echo: code %d body %q err %v", code, body, err)
		}
	}
	if code, _, err := c.do("GET", srv.URL+"/missing", nil); err != nil || code != 404 {
		t.Fatalf("GET /missing: code %d err %v, want 404", code, err)
	}
	// The floor is answered by net/http itself: the handler never sees it.
	before := handled.Load()
	for i := 0; i < 3; i++ {
		if err := c.floor(srv.URL); err != nil {
			t.Fatalf("OPTIONS *: %v", err)
		}
	}
	if handled.Load() != before {
		t.Fatal("OPTIONS * reached the handler; the floor must hold none of the program's code")
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("ten requests used %d connections, want one keep-alive connection", n)
	}
	srv.Close()
	if _, _, err := c.do("GET", srv.URL+"/big", nil); err == nil {
		t.Fatal("request to a stopped server succeeded")
	}
	srv2 := httptest.NewServer(handler)
	defer srv2.Close()
	if code, _, err := c.do("GET", srv2.URL+"/big", nil); err != nil || code != 200 {
		t.Fatalf("after a restart on another port: code %d err %v", code, err)
	}
}

func TestWithinBoundsOfRacingRead(t *testing.T) {
	for _, c := range []struct {
		final, got, initial int64
		ok                  bool
	}{
		{5, 5, 9, true}, {5, 9, 9, true}, {5, 7, 9, true},
		{5, 4, 9, false}, {5, 10, 9, false},
		{5, -1, -1, true}, {5, 5, -1, true}, {5, -1, 9, false}, {-1, -1, -1, true}, {-1, 3, -1, false},
	} {
		if got := within(c.final, c.got, c.initial); got != c.ok {
			t.Errorf("within(%d, %d, %d) = %v, want %v", c.final, c.got, c.initial, got, c.ok)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "compact.update", start: ms(0), end: ms(100), parent: -1, op: 1},
		{name: "wal.append", start: ms(10), end: ms(30), parent: 0, op: 1},
		{name: "dynamic.insert", start: ms(20), end: ms(50), parent: 0, op: 1}, // overlaps the append
		{name: "wal.fsync", start: ms(12), end: ms(28), parent: 1, op: 1},
		{name: "dynamic.late", start: ms(90), end: ms(120), parent: 0, op: 1}, // runs past its parent
		{name: "label.open", start: ms(200), end: -1, parent: -1, op: 2},      // never ended
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"compact": ms(100 - 40 - 10), // children cover [10,50] and [90,100]
		"wal":     ms(20 - 16 + 16),  // append minus fsync, plus fsync
		"dynamic": ms(30 + 30),
	}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
}

func TestChromeTraceIsAcceptedByTheRepositoryChecker(t *testing.T) {
	rec := newRecorder()
	root := rec.begin("compact.update", -1, rec.newOp(), 0)
	child := rec.begin("wal.append", root, rec.opOf(root), 0)
	rec.add("wal.fsync", time.Microsecond, child, rec.opOf(child), 0)
	rec.end(child)
	other := rec.begin("client.query", -1, rec.newOp(), 1) // a second lane, started before the root ends
	rec.end(root)
	rec.end(other)
	rec.begin("label.open", -1, rec.newOp(), 0) // left open: must be skipped
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, rec.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err := trace.CheckCapture(data)
	if err != nil {
		t.Fatalf("CheckCapture rejected the benchmark's trace: %v", err)
	}
	if st.Spans != 4 {
		t.Fatalf("trace holds %d spans, want the 4 that ended", st.Spans)
	}
}
