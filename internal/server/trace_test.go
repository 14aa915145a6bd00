package server

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"parapll/internal/graph"
	"parapll/internal/trace"
)

// TestSlowLogBoundsAndOrdering: over HTTP, /debug/slow lists the newest
// slow requests the slow lane holds (its ring is the tracer's lane
// capacity), newest first, and counts everything the lane ever took;
// fast requests stay off it, and a negative threshold keeps it empty.
func TestSlowLogBoundsAndOrdering(t *testing.T) {
	s, ts, _ := testDiagServer(t, 0, &Options{SlowThreshold: time.Nanosecond, Tracer: trace.New(0, 4)}) // everything is slow
	for i := 0; i < 10; i++ {
		var q queryResponse
		getJSON(t, ts.URL+"/query?s=0&t="+strconv.Itoa(i%5), &q)
	}
	var resp slowResponse
	getJSON(t, ts.URL+"/debug/slow", &resp)
	if resp.Total != 10 || len(resp.Entries) != 4 {
		t.Fatalf("total %d, %d entries, want 10 and the lane's capacity 4", resp.Total, len(resp.Entries))
	}
	gen := s.Generation()
	for i, e := range resp.Entries {
		if e.Path != "/query" || e.Status != 200 || e.Generation != gen || e.Cache != "" {
			t.Fatalf("entry %d = %+v, want a 200 /query on generation %d without cache", i, e, gen)
		}
		if e.S == nil || e.T == nil || *e.S != 0 || *e.T != graph.Vertex(4-i) {
			t.Fatalf("entry %d pair = %v %v, want (0, %d) (newest first)", i, e.S, e.T, 4-i)
		}
		if i > 0 && e.Time.After(resp.Entries[i-1].Time) {
			t.Fatalf("entry %d started after entry %d (newest first)", i, i-1)
		}
	}
	// /debug/slow's own span lands after its reply: the next read has
	// it on top, with no generation and no pair.
	resp = slowResponse{}
	getJSON(t, ts.URL+"/debug/slow", &resp)
	if head := resp.Entries[0]; resp.Total != 11 || head.Path != "/debug/slow" || head.Generation != 0 || head.S != nil {
		t.Fatalf("total %d, head %+v, want 11 and the previous /debug/slow", resp.Total, head)
	}

	// Fast requests are not listed, and neither is anything once the
	// threshold is negative.
	for _, threshold := range []time.Duration{time.Hour, -1} {
		_, ts, _ := testDiagServer(t, 0, &Options{SlowThreshold: threshold})
		var q queryResponse
		getJSON(t, ts.URL+"/query?s=0&t=3", &q)
		var resp slowResponse
		getJSON(t, ts.URL+"/debug/slow", &resp)
		if resp.Total != 0 || resp.Entries == nil || len(resp.Entries) != 0 {
			t.Fatalf("threshold %v: total %d, entries %v, want 0 and []", threshold, resp.Total, resp.Entries)
		}
	}
}

// TestDebugSlowEndpoint: slow requests surface at GET /debug/slow with
// path, status, duration and, on a pair route, the pair asked about.
func TestDebugSlowEndpoint(t *testing.T) {
	_, ts, _ := testDiagServer(t, 0, &Options{SlowThreshold: time.Nanosecond}) // everything is slow
	var q queryResponse
	if code := getJSON(t, ts.URL+"/query?s=0&t=3", &q); code != 200 {
		t.Fatalf("query status %d", code)
	}
	getJSON(t, ts.URL+"/query?s=0&t=99999", new(map[string]string)) // 400

	var resp slowResponse
	if code := getJSON(t, ts.URL+"/debug/slow", &resp); code != 200 {
		t.Fatalf("debug/slow status %d", code)
	}
	if resp.Total < 2 || len(resp.Entries) < 2 {
		t.Fatalf("slow lane: total %d entries %d, want >= 2", resp.Total, len(resp.Entries))
	}
	// Newest first: the 400 landed after the 200.
	var saw200, saw400 bool
	for _, e := range resp.Entries {
		if e.Path != "/query" && e.Path != "/debug/slow" {
			t.Fatalf("unexpected path %q", e.Path)
		}
		if e.Path == "/query" {
			switch e.Status {
			case 200:
				saw200 = true
				if e.S == nil || e.T == nil || *e.S != 0 || *e.T != 3 {
					t.Fatalf("pair = %v %v, want 0 3", e.S, e.T)
				}
			case 400:
				saw400 = true
				if saw200 {
					t.Fatal("400 entry should precede 200 entry (newest first)")
				}
				if e.S != nil || e.T != nil {
					t.Fatalf("a rejected pair is listed: %v %v", e.S, e.T)
				}
			}
			if e.DurationUS < 0 || e.Time.IsZero() {
				t.Fatalf("bad entry %+v", e)
			}
		}
	}
	if !saw200 || !saw400 {
		t.Fatalf("missing entries: saw200=%v saw400=%v", saw200, saw400)
	}
}

// TestDebugSlowNamesUpdateEdge: a slow /update lists its edge as the
// pair, and one whose edge is out of range lists none.
func TestDebugSlowNamesUpdateEdge(t *testing.T) {
	ts, _, _, _ := liveServerWith(t, 0, &Options{SlowThreshold: time.Nanosecond}) // everything is slow
	if code, out := postUpdate(t, ts.URL, 4, 1, 2); code != http.StatusOK {
		t.Fatalf("/update = %d: %v", code, out)
	}
	if code, _ := postUpdate(t, ts.URL, 0, 99, 2); code != http.StatusBadRequest {
		t.Fatalf("out-of-range /update = %d, want 400", code)
	}
	var resp slowResponse
	if code := getJSON(t, ts.URL+"/debug/slow", &resp); code != 200 {
		t.Fatalf("debug/slow status %d", code)
	}
	var saw200, saw400 bool
	for _, e := range resp.Entries {
		if e.Path != "/update" {
			continue
		}
		switch e.Status {
		case http.StatusOK:
			saw200 = true
			if e.S == nil || e.T == nil || *e.S != 4 || *e.T != 1 {
				t.Fatalf("/update pair = %v %v, want 4 1", e.S, e.T)
			}
		case http.StatusBadRequest:
			saw400 = true
			if e.S != nil || e.T != nil {
				t.Fatalf("a rejected edge is listed: %v %v", e.S, e.T)
			}
		}
	}
	if !saw200 || !saw400 {
		t.Fatalf("missing /update entries: saw200=%v saw400=%v in %+v", saw200, saw400, resp.Entries)
	}
}

// TestRequestSpansSampled: with a tracer installed and sampling 1-in-1,
// every request lands one span on the request lane, carrying its
// status, generation, cache outcome and pair.
func TestRequestSpansSampled(t *testing.T) {
	tr := trace.New(7, 1<<10)
	tr.Enable()
	s, ts, _ := testDiagServer(t, 0, &Options{Tracer: tr})
	const reqs = 20
	for i := 0; i < reqs; i++ {
		var q queryResponse
		if code := getJSON(t, ts.URL+"/query?s=0&t=3", &q); code != 200 {
			t.Fatalf("query status %d", code)
		}
	}
	want := []uint64{200, s.Generation(), cacheNone, packPair(0, 3)}
	var spans int
	for _, ev := range tr.Events() {
		if ev.Name != "http query" {
			continue
		}
		spans++
		if ev.Kind != trace.KindSpan || !slices.Equal(ev.Args, want) {
			t.Fatalf("bad request span %+v, want args %v", ev, want)
		}
		if ev.TID != trace.TIDRequest {
			t.Fatalf("span tid %d, want the request lane %d", ev.TID, trace.TIDRequest)
		}
		if ev.Dur < 0 {
			t.Fatalf("negative span duration %d", ev.Dur)
		}
	}
	if spans != reqs {
		t.Fatalf("%d request spans, want %d", spans, reqs)
	}
	if _, err := trace.CheckCapture(mustCapture(t, tr)); err != nil {
		t.Fatalf("server capture invalid: %v", err)
	}
}

// TestTwoRequestLanes: a server names exactly two request lanes, the
// request lane and the slow lane, and its request spans land on them
// however many requests it serves.
func TestTwoRequestLanes(t *testing.T) {
	tr := trace.New(0, 1<<14)
	_, ts, _ := testDiagServer(t, 0, &Options{Tracer: tr})
	httpLanes := func() map[int]string {
		var capture struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Tid  int    `json:"tid"`
				Args struct {
					Name string `json:"name"`
				} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(mustCapture(t, tr), &capture); err != nil {
			t.Fatal(err)
		}
		lanes := map[int]string{}
		for _, ev := range capture.TraceEvents {
			if ev.Name == "thread_name" && strings.HasPrefix(ev.Args.Name, "http") {
				lanes[ev.Tid] = ev.Args.Name
			}
		}
		return lanes
	}
	want := map[int]string{trace.TIDRequest: "http requests", trace.TIDSlow: "http slow"}
	if got := httpLanes(); !maps.Equal(got, want) {
		t.Fatalf("after NewPending the server names lanes %v, want %v", got, want)
	}
	tr.Enable()
	for i := 0; i < 100; i++ {
		var q queryResponse
		getJSON(t, ts.URL+"/query?s=0&t="+strconv.Itoa(i%5), &q)
	}
	tids := map[int]int{}
	for _, ev := range tr.Events() {
		if strings.HasPrefix(ev.Name, "http ") {
			tids[ev.TID]++
		}
	}
	if got := httpLanes(); !maps.Equal(got, want) || len(tids) != 1 || tids[trace.TIDRequest] != 100 {
		t.Fatalf("after 100 requests: lanes %v, spans by lane %v, want %v and 100 on %d", got, tids, want, trace.TIDRequest)
	}
}

// TestSlowRequestOutlivesFastFlood: at 1-in-1 sampling, fast requests
// wrap the request lane many times over, and a slow request before them
// is still listed at /debug/slow: the lanes are separate rings.
func TestSlowRequestOutlivesFastFlood(t *testing.T) {
	const capacity = 8
	tr := trace.New(0, capacity)
	tr.Enable()
	s, ts, _ := testDiagServer(t, 0, &Options{SlowThreshold: 50 * time.Millisecond, Tracer: tr})
	s.handle("/sleep", http.MethodGet, 0, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(60 * time.Millisecond)
		writeReply(w, healthzReply)
	})
	getJSON(t, ts.URL+"/sleep", new(map[string]string))
	for i := 0; i < 12*capacity; i++ {
		getJSON(t, ts.URL+"/healthz", new(map[string]string))
	}
	var resp slowResponse
	getJSON(t, ts.URL+"/debug/slow", &resp)
	found := false
	for _, e := range resp.Entries {
		found = found || (e.Path == "/sleep" && e.DurationUS >= 60_000)
	}
	if !found {
		t.Fatalf("the slow /sleep is gone from /debug/slow after %d fast requests: %+v", 12*capacity, resp.Entries)
	}
	if d := tr.Buf(trace.TIDRequest).Drops(); d == 0 {
		t.Fatal("the fast requests never wrapped the request lane")
	}
}

// TestSlowLaneHammer: writers whose every request is slow share the
// slow lane beside /debug/slow readers. Under -race this holds the lane
// lock-free and clean; each listed /query keeps t = s+1 mod 5, so an
// entry mixing two requests' args would show, and a reply never lists
// more than the lane holds.
func TestSlowLaneHammer(t *testing.T) {
	const capacity = 16
	s, _, _ := testDiagServer(t, 0, &Options{SlowThreshold: time.Nanosecond, Tracer: trace.New(0, capacity)})
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				src := (w + i) % 5
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/query?s=%d&t=%d", src, (src+1)%5), nil))
				if rec.Code != 200 {
					t.Errorf("query status %d", rec.Code)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slow", nil))
				var resp slowResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Errorf("decoding /debug/slow: %v", err)
					return
				}
				if len(resp.Entries) > capacity {
					t.Errorf("%d entries from a lane of %d", len(resp.Entries), capacity)
				}
				for _, e := range resp.Entries {
					if e.Path != "/query" {
						continue
					}
					if e.Status != 200 || e.S == nil || e.T == nil || *e.T != (*e.S+1)%5 {
						t.Errorf("torn entry %+v", e)
						return
					}
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}

// TestRequestSampling: 1-in-N sampling records exactly an Nth of a
// request stream (the sampler is a deterministic modulo counter) with
// the distance cache off and on, and on /update through a pipeline
// holding the same tracer: the request is the one thing sampled, so no
// layer under the handler may draw from the counter (a second draw per
// request leaves an even N no request span at all).
func TestRequestSampling(t *testing.T) {
	const reqs = 40
	for _, tc := range []struct {
		name  string
		cache int  // distance-cache entries (0: none)
		live  bool // /update on a living server instead of /query
	}{
		{name: "query", cache: 0},
		{name: "query", cache: 1 << 10},
		{name: "update", live: true},
	} {
		for _, n := range []uint64{2, 4} {
			t.Run(fmt.Sprintf("%s/cache=%d/N=%d", tc.name, tc.cache, n), func(t *testing.T) {
				tr := trace.New(0, 1<<10)
				tr.Enable()
				tr.SetSample(n)
				if tc.live {
					ts, _, _, _ := liveServerWith(t, 0, &Options{Tracer: tr})
					for i := 0; i < reqs; i++ {
						if code, out := postUpdate(t, ts.URL, 0, 5, int64(1+i)); code != http.StatusOK {
							t.Fatalf("/update = %d: %v", code, out)
						}
					}
				} else {
					_, ts, _ := testDiagServer(t, tc.cache, &Options{Tracer: tr})
					for i := 0; i < reqs; i++ {
						var q queryResponse
						getJSON(t, ts.URL+"/query?s=0&t=1", &q)
					}
				}
				var spans int
				for _, ev := range tr.Events() {
					if ev.Name == "http "+tc.name {
						spans++
					}
				}
				if want := reqs / int(n); spans != want {
					t.Fatalf("%d spans from %d requests at 1-in-%d, want %d", spans, reqs, n, want)
				}
			})
		}
	}
}

// TestDebugTraceEndpoint: the live-capture endpoint validates input,
// runs one capture at a time, returns a valid Chrome trace containing
// the traffic that ran during the window, and restores the tracer's
// previous enabled state.
func TestDebugTraceEndpoint(t *testing.T) {
	// No tracer configured: the server's own answers the capture.
	_, ts, _ := testDiagServer(t, 0, nil)
	resp, err := http.Get(ts.URL + "/debug/trace?sec=0.01")
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trace.CheckCapture(data); resp.StatusCode != 200 || err != nil {
		t.Fatalf("no-tracer capture: status %d, %v: %s", resp.StatusCode, err, data)
	}

	tr := trace.New(0, 1<<12) // disabled: /debug/trace must enable and restore
	_, ts, _ = testDiagServer(t, 0, &Options{Tracer: tr})

	// "nan" is the trap case: ParseFloat accepts it and NaN slips past a
	// naive `v <= 0` check into an unbounded capture sleep.
	for _, bad := range []string{"0", "-1", "61", "x", "nan", "NaN", "-nan"} {
		if code := getJSON(t, ts.URL+"/debug/trace?sec="+bad, new(map[string]string)); code != 400 {
			t.Fatalf("sec=%s status %d, want 400", bad, code)
		}
	}

	// Drive traffic while the capture window is open.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var q queryResponse
				getJSON(t, ts.URL+"/query?s=0&t=3", &q)
			}
		}
	}()
	resp, err = http.Get(ts.URL + "/debug/trace?sec=0.25")
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	data, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("capture status %d: %s", resp.StatusCode, data)
	}
	st, err := trace.CheckCapture(data)
	if err != nil {
		t.Fatalf("capture invalid: %v", err)
	}
	if st.Spans == 0 {
		t.Fatal("live capture saw no request spans")
	}
	if tr.Enabled() {
		t.Fatal("capture did not restore the tracer's disabled state")
	}

	// Concurrent captures: exactly one of two overlapping requests wins.
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/debug/trace?sec=0.3")
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	a, b := <-codes, <-codes
	if !(a == 200 && b == http.StatusConflict) && !(a == http.StatusConflict && b == 200) {
		t.Fatalf("overlapping captures returned %d and %d, want one 200 and one 409", a, b)
	}
}

// TestMetricsContentNegotiation: /metrics answers JSON by default and
// the Prometheus text exposition when the scraper asks for text/plain.
func TestMetricsContentNegotiation(t *testing.T) {
	ts, _ := testServer(t, false)
	var q queryResponse
	getJSON(t, ts.URL+"/query?s=0&t=3", &q)

	// Default: JSON snapshot.
	var snap map[string]interface{}
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != 200 {
		t.Fatalf("metrics status %d", code)
	}
	if _, ok := snap["histograms"]; !ok {
		t.Fatalf("JSON snapshot missing histograms: %v", snap)
	}

	// Prometheus scrape.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("prometheus content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE http_requests_query counter\n",
		"# TYPE http_latency_us_query histogram\n",
		`http_latency_us_query_bucket{le="+Inf"}`,
		"http_latency_us_query_sum",
		"http_latency_us_query_count",
		"# TYPE http_inflight gauge\n",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

func mustCapture(t *testing.T, tr *trace.Tracer) []byte {
	t.Helper()
	data, err := tr.Capture(0)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
