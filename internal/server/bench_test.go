package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"

	"parapll/internal/gen"
	"parapll/internal/label"
	"parapll/internal/pll"
)

// nullWriter is a ResponseWriter that keeps nothing: what a benchmark or
// an allocation guard measures through it is the program's own work, not
// a recorder's buffer growth.
type nullWriter struct {
	h      http.Header
	status int
}

func newNullWriter() *nullWriter { return &nullWriter{h: make(http.Header)} }

func (w *nullWriter) Header() http.Header { return w.h }
func (w *nullWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// replayBody is a request body that can be rewound, so one *http.Request
// serves every iteration.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// benchIndex is the repository benchmark's serving graph (Gnutella at
// scale 0.35: n = 3807, LN ~ 245), so these rows sit beside its
// server.handler_us.
var benchIndex = sync.OnceValue(func() *label.Index {
	rec, err := gen.FindRecipe("Gnutella")
	if err != nil {
		panic(err)
	}
	return pll.Build(rec.Generate(0.35), pll.Options{})
})

// serverLikeBinary serves idx the way cmd/parapll-server's defaults do:
// distance cache of 65 536 entries, default batch fan-out.
func serverLikeBinary(idx *label.Index) *Server {
	return serverWithCache(idx, 65536, nil)
}

func serverWithCache(idx *label.Index, entries int, o *Options) *Server {
	s := NewPending(o)
	s.SetCacheEntries(entries)
	s.Publish(idx, nil, "")
	return s
}

// cacheRows runs a handler benchmark twice: as "cache=default" behind
// the binary's cache and as "cache=0" behind none — the difference is
// what the cache costs a stream it cannot help.
func cacheRows(b *testing.B, run func(b *testing.B, s *Server)) {
	b.Run("cache=default", func(b *testing.B) { run(b, serverLikeBinary(benchIndex())) })
	b.Run("cache=0", func(b *testing.B) { run(b, serverWithCache(benchIndex(), 0, nil)) })
}

// beyondCache is how many distinct uniform pairs a benchmark cycles
// through: more than twice the cache, so an LRU never holds the next
// one (the set-associative table still holds some 3 % of them, in the
// sets that fewer than five of these pairs fall into).
const beyondCache = 140000

func batchBody(rng *rand.Rand, n, pairs int) []byte {
	b := []byte(`{"pairs":[`)
	for i := 0; i < pairs; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(rng.Intn(n)), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(rng.Intn(n)), 10)
		b = append(b, ']')
	}
	return append(b, "]}"...)
}

func BenchmarkHandleQuery(b *testing.B) {
	cacheRows(b, benchHandleQuery)
}

func benchHandleQuery(b *testing.B, s *Server) {
	n := benchIndex().NumVertices()
	rng := rand.New(rand.NewSource(1))
	queries := make([]string, beyondCache)
	for i := range queries {
		queries[i] = fmt.Sprintf("s=%d&t=%d", rng.Intn(n), rng.Intn(n))
	}
	r := httptest.NewRequest("GET", "/query?s=0&t=1", nil)
	w := newNullWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.URL.RawQuery = queries[i%len(queries)]
		w.status = 0
		s.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}

func BenchmarkHandleBatch(b *testing.B) {
	for _, size := range []int{4, 2000} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			cacheRows(b, func(b *testing.B, s *Server) { benchHandleBatch(b, s, size) })
		})
	}
}

func benchHandleBatch(b *testing.B, s *Server, size int) {
	n := benchIndex().NumVertices()
	rng := rand.New(rand.NewSource(1))
	bodies := make([][]byte, beyondCache/size)
	for i := range bodies {
		bodies[i] = batchBody(rng, n, size)
	}
	body := &replayBody{}
	r := httptest.NewRequest("POST", "/batch", nil)
	w := newNullWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := bodies[i%len(bodies)]
		body.Reset(p)
		r.Body = body // the handler wraps it in a MaxBytesReader
		r.ContentLength = int64(len(p))
		w.status = 0
		s.ServeHTTP(w, r)
		if w.status != http.StatusOK {
			b.Fatalf("status %d", w.status)
		}
	}
}
