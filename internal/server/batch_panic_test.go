package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// TestBatchOnDamagedIndex serves a PIDM file whose header is valid and
// one of whose tail hub ids is not a vertex: label.Open does not read
// the entries and the server never calls Verify, so the file is
// published. A /batch that touches the damaged label makes the batch
// kernel index its dense array out of range — on the request's goroutine
// for a small batch, on a fan-out worker for a large one. Either way the
// panic must arrive at the request's barrier: 500, http.panics_total,
// and a server that answers the next request.
//
// The head cannot do that: it has no per-entry hub id. A flipped head
// byte is a wrong distance that Verify names, and /query and /batch over
// it answer 200. The middle tier stands between the two: a flipped
// bitmap bit shifts the ranks behind it in one vertex's packed run, so a
// request over that vertex answers 200 with a wrong distance or, when a
// rank falls off the end of the run, 500 — and every request clear of it
// is answered as before.
func TestBatchOnDamagedIndex(t *testing.T) {
	const n = 400 // enough vertices that a hub in a dozen labels stays a tail hub
	r := rand.New(rand.NewSource(41))
	edges := make([]graph.Edge, 0, 3*n)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(9))})
	}
	for i := 0; i < 2*n; i++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(9))})
	}
	good := pll.Build(graph.FromEdges(n, edges), pll.Options{})
	k, _ := good.Head()
	k2, _ := good.Mid()
	if k == 0 || k2 == 0 || good.HubBytes() != 2 {
		t.Fatalf("the index has %d head and %d mid columns and %d-byte tail hubs: want both tiers and 2-byte hubs", k, k2, good.HubBytes())
	}

	var file bytes.Buffer
	if err := good.WriteMmap(&file); err != nil {
		t.Fatal(err)
	}
	// PIDM version 5 header: the nine section offsets, in file order
	// (off, midOff, headHubs, midHubs, head, midBits, midDists, hubs,
	// dists), start at byte 72; an offset is 4 bytes.
	section := func(i int) uint64 { return binary.LittleEndian.Uint64(file.Bytes()[72+8*i:]) }
	offSec, headSec, midBitsSec, hubsSec := section(0), section(4), section(5), section(7)
	// The victim is the first vertex with a tail entry, which is entry 0.
	victim := 0
	for binary.LittleEndian.Uint32(file.Bytes()[offSec+4*uint64(victim+1):]) == 0 {
		victim++
	}
	open := func(name string, damage func(data []byte)) *label.Index {
		data := bytes.Clone(file.Bytes())
		damage(data)
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		x, err := label.Open(path)
		if err != nil {
			t.Fatalf("Open rejected a file with a valid header: %v", err)
		}
		t.Cleanup(func() { x.Close() })
		return x
	}
	query := func(s *Server, u, v int) int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/query?s=%d&t=%d", u, v), nil))
		return rec.Code
	}

	flipped := open("flipped.midx", func(data []byte) { data[headSec] ^= 0x40 }) // d(head hub 0, vertex 0), 64 off at a byte a distance
	if err := flipped.Verify(); err == nil || !strings.Contains(err.Error(), "head section checksum") {
		t.Fatalf("Verify of a flipped head byte: %v, want the head section's checksum named", err)
	}
	fs := serverLikeBinary(flipped)
	for _, pairs := range []int{4, 900} {
		if rec := postBatch(fs, manyPairs(pairs)); rec.Code != http.StatusOK {
			t.Fatalf("%d-pair batch over the flipped head byte: status %d body %q", pairs, rec.Code, rec.Body.String())
		}
	}
	for v := 0; v < n; v++ {
		if code := query(fs, 0, v); code != http.StatusOK {
			t.Fatalf("/query?s=0&t=%d over the flipped head byte: status %d", v, code)
		}
	}
	if got := fs.opt.Registry.Snapshot().Counters["http.panics_total"]; got != 0 {
		t.Fatalf("http.panics_total = %d over the flipped head byte", got)
	}

	body := func(pairs int, avoid bool) string {
		var b strings.Builder
		b.WriteString(`{"pairs":[`)
		for i := 0; i < pairs; i++ {
			u, v := r.Intn(n), r.Intn(n)
			for avoid && (u == victim || v == victim) {
				u, v = r.Intn(n), r.Intn(n)
			}
			if !avoid && i == pairs/2 {
				v = victim
			}
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d]", u, v)
		}
		b.WriteString("]}")
		return b.String()
	}
	// served asks s a batch that stays clear of the victim and holds the
	// reply to the undamaged index.
	served := func(s *Server, pairs int, after string) {
		t.Helper()
		ask := body(pairs, true)
		rec := postBatch(s, ask)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch after %s: status %d body %q", after, rec.Code, rec.Body.String())
		}
		var req struct{ Pairs [][2]graph.Vertex }
		var resp batchResponse
		if err := json.Unmarshal([]byte(ask), &req); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		for k, p := range req.Pairs {
			if want := int64(good.Query(p[0], p[1])); resp.Dists[k] != want {
				t.Fatalf("after %s: pair %v = %d, want %d", after, p, resp.Dists[k], want)
			}
		}
	}

	// The victim's first bitmap bit: set, its run is one distance short
	// of its row and the last rank falls off it; cleared, every rank
	// reads the distance before its own.
	w := uint64(k2+63) / 64
	bitFlipped := open("bitflipped.midx", func(data []byte) { data[midBitsSec+uint64(victim)*8*w] ^= 1 })
	if err := bitFlipped.Verify(); err == nil || !strings.Contains(err.Error(), "midBits section checksum") {
		t.Fatalf("Verify of a flipped bitmap bit: %v, want the midBits section's checksum named", err)
	}
	bs := serverWithCache(bitFlipped, 65536, &Options{BatchThreads: 2})
	answered := map[int]int{}
	for v := 0; v < n; v++ {
		answered[query(bs, victim, v)]++
	}
	for _, pairs := range []int{4, 900} {
		answered[postBatch(bs, body(pairs, false)).Code]++
		served(bs, pairs, "a batch over the flipped bitmap bit")
	}
	if answered[http.StatusOK]+answered[http.StatusInternalServerError] != n+2 {
		t.Fatalf("requests over the flipped bitmap bit were answered %v, want only 200s and 500s", answered)
	}
	if got := bs.opt.Registry.Snapshot().Counters["http.panics_total"]; got != int64(answered[http.StatusInternalServerError]) {
		t.Fatalf("http.panics_total = %d beside %d replies of 500", got, answered[http.StatusInternalServerError])
	}

	damaged := open("damaged.midx", func(data []byte) { binary.LittleEndian.PutUint16(data[hubsSec:], n+9) })
	s := serverWithCache(damaged, 65536, &Options{BatchThreads: 2})
	panics := func() int64 { return s.opt.Registry.Snapshot().Counters["http.panics_total"] }
	for i, pairs := range []int{4, 900} { // one chunk on the request's goroutine; many on two workers
		rec := postBatch(s, body(pairs, false))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "index out of range") {
			t.Fatalf("%d-pair batch over the damaged label: status %d body %q, want 500 naming the index panic",
				pairs, rec.Code, rec.Body.String())
		}
		if got := panics(); got != int64(i+1) {
			t.Fatalf("http.panics_total = %d after %d panicking batches", got, i+1)
		}
		// The next request is served, by the same kernel and the same pool.
		served(s, pairs, "the panic")
	}
}

// cuttableGraph is a connected random graph on n vertices whose index
// file, at n = 500, spans ~12 pages: a cut to its first page leaves most
// labels beyond the end of the file.
func cuttableGraph(n int) *graph.Graph {
	r := rand.New(rand.NewSource(43))
	edges := make([]graph.Edge, 0, 3*n)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(9))})
	}
	for i := 0; i < 2*n; i++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(9))})
	}
	return graph.FromEdges(n, edges)
}

// TestTruncatedIndexAnswers500 serves a PIDM file and then cuts it to
// its first page under the running server, as a crash or an operator
// might. Every read that reaches the cut-off sections faults in the
// mapping; the read handlers run with debug.SetPanicOnFault on, so the
// fault is a panic the request's barrier answers with a 500 — on the
// request's goroutine and on /batch's fan-out workers alike — and
// http.panics_total counts it, instead of SIGBUS ending the process.
// /healthz still answers after them.
func TestTruncatedIndexAnswers500(t *testing.T) {
	const n = 500 // an index file of ~12 pages, well over the 8 the cut needs
	g := cuttableGraph(n)
	path := filepath.Join(t.TempDir(), "index.midx")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pll.Build(g, pll.Options{}).WriteMmap(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	x, err := label.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { x.Close() })
	s := NewPending(&Options{BatchThreads: 2})
	s.SetCacheEntries(65536)
	s.Publish(x, g, path)

	const page = 4096
	if st, err := os.Stat(path); err != nil || st.Size() < 8*page {
		t.Fatalf("index file of %v bytes (%v): too small for a cut at one page to reach its sections", st.Size(), err)
	}
	if err := os.Truncate(path, page); err != nil {
		t.Fatal(err)
	}

	get := func(url string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec
	}
	requests := []struct {
		name string
		do   func() *httptest.ResponseRecorder
	}{
		{"/query", func() *httptest.ResponseRecorder { return get(fmt.Sprintf("/query?s=%d&t=%d", n-1, n-2)) }},
		{"/batch of 4", func() *httptest.ResponseRecorder { return postBatch(s, manyPairs(4)) }},     // on the request's goroutine
		{"/batch of 900", func() *httptest.ResponseRecorder { return postBatch(s, manyPairs(900)) }}, // on two workers
		{"/path", func() *httptest.ResponseRecorder { return get(fmt.Sprintf("/path?s=%d&t=%d", n-1, n-2)) }},
		{"/debug/explain", func() *httptest.ResponseRecorder {
			return get(fmt.Sprintf("/debug/explain?s=%d&t=%d", n-1, n-2))
		}},
	}
	for i, req := range requests {
		rec := req.do()
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "invalid memory address") {
			t.Fatalf("%s over the truncated index: status %d body %q, want 500 naming the memory fault", req.name, rec.Code, rec.Body.String())
		}
		if got := s.opt.Registry.Snapshot().Counters["http.panics_total"]; got != int64(i+1) {
			t.Fatalf("http.panics_total = %d after %d faulting requests", got, i+1)
		}
	}
	if rec := get("/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz after the faults: status %d", rec.Code)
	}
}
