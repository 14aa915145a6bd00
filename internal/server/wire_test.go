package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"parapll/internal/graph"
	"parapll/internal/pll"
)

// The wire shapes as encoding/json sees them. The server no longer
// encodes or decodes through these; the tests do, as clients would, and
// as the reference the hand-rolled codec is compared with.
type queryResponse struct {
	S         graph.Vertex `json:"s"`
	T         graph.Vertex `json:"t"`
	Dist      int64        `json:"dist"` // -1 when unreachable
	Reachable bool         `json:"reachable"`
}
type batchRequest struct {
	Pairs [][2]graph.Vertex `json:"pairs"`
}
type batchResponse struct {
	Dists []int64 `json:"dists"`
}

// wireServer is testServer's graph (path 0-1-2-3 with weights 3, 4, 5;
// vertex 4 isolated) without the socket, behind the binary's cache.
func wireServer() *Server {
	return serverLikeBinary(pll.Build(testGraph(), pll.Options{}))
}

func postBatch(s *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/batch", strings.NewReader(body)))
	return rec
}

func manyPairs(n int) string {
	return `{"pairs":[` + strings.TrimSuffix(strings.Repeat("[0,1],", n), ",") + `]}`
}

// batchBodies is every body the table test and the fuzz seeds share:
// the status it gets, and for a 400 the byte offset its error names
// (-1: the error is not about a position).
var batchBodies = []struct {
	name   string
	body   string
	status int
	at     int
}{
	{"two pairs", `{"pairs":[[0,3],[2,2]]}`, 200, -1},
	{"empty list", `{"pairs":[]}`, 200, -1},
	{"whitespace everywhere", " {\n\t\"pairs\" : [ [ 0 , 3 ] ,\r\n [ 2 , 2 ] ] } \n", 200, -1},
	{"largest id that parses", `{"pairs":[[2147483647,0]]}`, 400, -1}, // out of range, not malformed

	// Answered 200 before this decoder, each with a distance nobody asked for.
	{"arity 1", `{"pairs":[[5]]}`, 400, 12},
	{"arity 3", `{"pairs":[[1,2,3]]}`, 400, 14},
	{"null pair", `{"pairs":[null]}`, 400, 10},
	{"trailing junk", `{"pairs":[[0,1]]}junk`, 400, 17},
	{"second object", `{"pairs":[[0,1]]}{"pairs":[[0,2]]}`, 400, 17},
	{"duplicate member", `{"pairs":[[0,1]],"pairs":[[0,2]]}`, 400, 16},
	{"no pairs member", `{}`, 400, 1},
	{"null list", `{"pairs":null}`, 400, 9},
	{"unknown member", `{"pairs":[[0,1]],"k":1}`, 400, 16},
	{"other member first", `{"k":1,"pairs":[[0,1]]}`, 400, 2},

	// Rejected before too; now with the offset.
	{"float", `{"pairs":[[0.5,1]]}`, 400, 12},
	{"exponent", `{"pairs":[[1e2,1]]}`, 400, 12},
	{"negative", `{"pairs":[[-1,0]]}`, 400, 11},
	{"past int32", `{"pairs":[[2147483648,0]]}`, 400, 20},
	{"far past int64", `{"pairs":[[99999999999999999999999,0]]}`, 400, 20},
	{"leading zero", `{"pairs":[[01,2]]}`, 400, 12},
	{"string id", `{"pairs":[["1",2]]}`, 400, 11},
	{"trailing comma", `{"pairs":[[0,1],]}`, 400, 16},
	{"escaped key", `{"p\u0061irs":[[0,1]]}`, 400, 3},
	{"upper-case key", `{"PAIRS":[[0,1]]}`, 400, 2},
	{"bare array", `[[0,1]]`, 400, 0},
	{"not json", `{nope`, 400, 1},
	{"truncated", `{"pairs":[[0,1]`, 400, 15},
	{"empty body", ``, 400, 0},
	{"out of range", `{"pairs":[[0,1],[0,99]]}`, 400, -1},
	{"one pair too many", manyPairs(maxBatch + 1), 400, 10 + 6*maxBatch},
	{"as many pairs as allowed", manyPairs(maxBatch), 200, -1},
	// Over the byte limit without being over the pair limit first.
	{"body too large", `{"pairs":[` + strings.Repeat(" ", maxBatchBytes) + `]}`, 413, -1},
}

func TestBatchBodies(t *testing.T) {
	s := wireServer()
	for _, c := range batchBodies {
		rec := postBatch(s, c.body)
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, rec.Code, c.status, rec.Body)
			continue
		}
		if c.status == 200 {
			continue
		}
		var e map[string]string
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error reply %q is not {\"error\":...}", c.name, rec.Body)
		}
		if want := "byte " + strconv.Itoa(c.at); c.at >= 0 && !strings.Contains(e["error"], want) {
			t.Errorf("%s: error %q does not name %s", c.name, e["error"], want)
		}
	}
	// The answers of the accepted shapes, through the reference decoder.
	var out batchResponse
	if err := json.Unmarshal(postBatch(s, batchBodies[2].body).Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Dists) != 2 || out.Dists[0] != 12 || out.Dists[1] != 0 {
		t.Fatalf("dists = %v, want [12 0]", out.Dists)
	}
}

// countingReader reports how much of a body the decoder pulled.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestBatchDecodeStopsAtLimit: the pair limit is enforced while
// decoding, not after the body has been materialised.
func TestBatchDecodeStopsAtLimit(t *testing.T) {
	const limit = 1000
	body := manyPairs(50 * limit)
	b := new(wireBuf)
	in := &countingReader{r: strings.NewReader(body)}
	if _, err := b.decodePairs(in, limit); err == nil || !strings.Contains(err.Error(), "exceeds limit 1000") {
		t.Fatalf("err = %v, want the limit", err)
	}
	if len(b.pairs) != limit || cap(b.pairs) >= 2*limit {
		t.Fatalf("decoded %d pairs into capacity %d; want to stop at %d", len(b.pairs), cap(b.pairs), limit)
	}
	if past := in.n - len(manyPairs(limit)); past > len(b.rd) {
		t.Fatalf("read %d bytes past pair %d; want at most one window (%d)", past, limit, len(b.rd))
	}
	// What went over the pooling bound does not go back into the pool.
	b.pairs = make([][2]graph.Vertex, 0, maxPooledPairs+1)
	b.out = make([]byte, 0, maxPooledOut+1)
	putWireBuf(b)
	if b.pairs != nil || b.out != nil {
		t.Fatal("putWireBuf kept an oversized buffer")
	}
}

// FuzzBatchDecode: the decoder never panics, and whatever it accepts
// encoding/json accepts too, with the same pairs. (Not the converse:
// being stricter than encoding/json is the point.)
func FuzzBatchDecode(f *testing.F) {
	for _, c := range batchBodies {
		if len(c.body) < 1<<10 {
			f.Add([]byte(c.body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		b := new(wireBuf)
		// A one-byte-at-a-time reader moves the window edge through
		// every token.
		got, err := b.decodePairs(iotest.OneByteReader(bytes.NewReader(body)), 64)
		whole, errWhole := new(wireBuf).decodePairs(bytes.NewReader(body), 64)
		if (err == nil) != (errWhole == nil) || len(got) != len(whole) {
			t.Fatalf("window placement changed the outcome: %v / %v", err, errWhole)
		}
		if err != nil {
			return
		}
		var ref batchRequest
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatalf("accepted %q, encoding/json says %v", body, err)
		}
		if len(ref.Pairs) != len(got) {
			t.Fatalf("%q: %d pairs, encoding/json has %d", body, len(got), len(ref.Pairs))
		}
		for i := range got {
			if got[i] != ref.Pairs[i] || got[i] != whole[i] {
				t.Fatalf("%q: pair %d = %v / %v, encoding/json has %v", body, i, got[i], whole[i], ref.Pairs[i])
			}
		}
	})
}

// TestReplyBytesGolden: valid requests get, byte for byte, what
// writeJSON made of the reflected structs, now with a declared length.
func TestReplyBytesGolden(t *testing.T) {
	s := wireServer()
	jsonLine := func(v any) string {
		var buf bytes.Buffer
		if err := json.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	check := func(name string, rec *httptest.ResponseRecorder, want string) {
		t.Helper()
		if rec.Code != 200 || rec.Body.String() != want {
			t.Errorf("%s: %d %q, want 200 %q", name, rec.Code, rec.Body, want)
		}
		h := rec.Result().Header
		if h.Get("Content-Type") != "application/json" || h.Get("Content-Length") != strconv.Itoa(len(want)) {
			t.Errorf("%s: headers %v, want application/json and length %d", name, h, len(want))
		}
	}
	for _, q := range []queryResponse{
		{S: 0, T: 3, Dist: 12, Reachable: true},
		{S: 3, T: 0, Dist: 12, Reachable: true},
		{S: 0, T: 4, Dist: -1, Reachable: false}, // unreachable
		{S: 2, T: 2, Dist: 0, Reachable: true},   // s == t
	} {
		rec := httptest.NewRecorder()
		url := "/query?s=" + strconv.Itoa(int(q.S)) + "&t=" + strconv.Itoa(int(q.T))
		s.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		check(url, rec, jsonLine(q))
	}
	// Parameter order and extra parameters do not matter; the first s wins.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/query?x=9&t=3&s=0&s=1", nil))
	check("reordered", rec, jsonLine(queryResponse{S: 0, T: 3, Dist: 12, Reachable: true}))

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	check("healthz", rec, jsonLine(map[string]string{"status": "ok"}))

	check("batch", postBatch(s, `{"pairs":[[0,3],[3,0],[0,4],[2,2]]}`),
		jsonLine(batchResponse{Dists: []int64{12, 12, -1, 0}}))
	check("empty batch", postBatch(s, `{"pairs":[]}`), jsonLine(batchResponse{Dists: []int64{}}))
}

// TestAllocsPerRequest guards the program's allocations per request
// (the request and the writer are reused, so neither net/http's nor a
// recorder's are counted). Before the codec: 11 for /query and 23 for a
// 4-pair /batch measured this way; the bound is a third of that.
// /healthz, the mux and middleware with no handler work, allocates once,
// as /query does today: its Content-Length (5 through writeJSON and a map).
func TestAllocsPerRequest(t *testing.T) {
	s := wireServer()
	w := newNullWriter()
	serve := func(r *http.Request) {
		w.status = 0
		s.ServeHTTP(w, r)
		if w.status != 200 {
			t.Fatalf("%s: status %d", r.URL, w.status)
		}
	}
	get := httptest.NewRequest("GET", "/query?s=0&t=3", nil)
	if n := testing.AllocsPerRun(200, func() { serve(get) }); n > 3 {
		t.Errorf("/query: %v allocations per request, want at most 3", n)
	}
	health := httptest.NewRequest("GET", "/healthz", nil)
	if n := testing.AllocsPerRun(200, func() { serve(health) }); n > 1 {
		t.Errorf("/healthz: %v allocations per request, want at most 1, what /query takes", n)
	}
	post := httptest.NewRequest("POST", "/batch", nil)
	body, four := &replayBody{}, []byte(`{"pairs":[[0,3],[3,0],[0,4],[2,2]]}`)
	if n := testing.AllocsPerRun(200, func() {
		body.Reset(four)
		post.Body = body // the handler wraps it in a MaxBytesReader
		serve(post)
	}); n > 7 {
		t.Errorf("4-pair /batch: %v allocations per request, want at most 7", n)
	}
}
