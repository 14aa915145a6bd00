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
// it answer 200.
func TestBatchOnDamagedIndex(t *testing.T) {
	const n = 80
	r := rand.New(rand.NewSource(41))
	edges := make([]graph.Edge, 0, 3*n)
	for v := 1; v < n; v++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(v)), V: graph.Vertex(v), W: graph.Dist(1 + r.Intn(9))})
	}
	for i := 0; i < 2*n; i++ {
		edges = append(edges, graph.Edge{U: graph.Vertex(r.Intn(n)), V: graph.Vertex(r.Intn(n)), W: graph.Dist(1 + r.Intn(9))})
	}
	good := pll.Build(graph.FromEdges(n, edges), pll.Options{})
	if k, _ := good.Head(); k == 0 {
		t.Fatal("the index has no head to damage")
	}

	var file bytes.Buffer
	if err := good.WriteMmap(&file); err != nil {
		t.Fatal(err)
	}
	// PIDM header: the section offsets, in file order, start at byte 40.
	section := func(i int) uint64 { return binary.LittleEndian.Uint64(file.Bytes()[40+8*i:]) }
	offSec, headSec, hubsSec := section(0), section(2), section(3)
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

	flipped := open("flipped.midx", func(data []byte) { data[headSec+1] ^= 0x40 }) // d(head hub 0, vertex 0), 2^14 off
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
		rec := httptest.NewRecorder()
		fs.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/query?s=0&t=%d", v), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/query?s=0&t=%d over the flipped head byte: status %d body %q", v, rec.Code, rec.Body.String())
		}
	}
	if got := fs.Registry().Snapshot().Counters["http.panics_total"]; got != 0 {
		t.Fatalf("http.panics_total = %d over the flipped head byte", got)
	}

	// Tail entry 0 is the first hub of the first vertex whose tail is not
	// empty; the pairs below call it vertex 0, which it is.
	damaged := open("damaged.midx", func(data []byte) {
		if binary.LittleEndian.Uint64(data[offSec+8:]) == 0 {
			t.Fatal("vertex 0 has no tail entry to damage")
		}
		binary.LittleEndian.PutUint32(data[hubsSec:], n+9)
	})

	s := serverLikeBinary(damaged)
	s.SetBatchThreads(2)
	body := func(pairs int, avoid0 bool) string {
		var b strings.Builder
		b.WriteString(`{"pairs":[`)
		for i := 0; i < pairs; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if avoid0 {
				u, v = 1+r.Intn(n-1), 1+r.Intn(n-1)
			} else if i == pairs/2 {
				v = 0
			}
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d]", u, v)
		}
		b.WriteString("]}")
		return b.String()
	}
	panics := func() int64 { return s.Registry().Snapshot().Counters["http.panics_total"] }

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
		ask := body(pairs, true)
		rec = postBatch(s, ask)
		if rec.Code != http.StatusOK {
			t.Fatalf("batch after the panic: status %d body %q", rec.Code, rec.Body.String())
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
				t.Fatalf("after the panic: pair %v = %d, want %d", p, resp.Dists[k], want)
			}
		}
	}
}
