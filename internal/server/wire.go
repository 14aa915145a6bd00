package server

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"parapll/internal/graph"
)

// The wire codec of the two distance endpoints. /query and /batch are
// the only requests whose cost is comparable to the work they ask for
// (a label merge is microseconds), so they do not go through reflection:
// the batch body is parsed in one pass straight into a pooled pair
// slice, replies are appended into a pooled buffer and written once with
// their length known. Every other endpoint, and every error reply, stays
// on encoding/json.

// wireBuf is one request's scratch: the window the body is read through,
// the decoded pairs and the reply bytes.
type wireBuf struct {
	rd    [4096]byte
	pairs [][2]graph.Vertex
	out   []byte
}

// What a wireBuf may carry back into the pool. One 100 000-pair request
// must not leave 800 KB behind in every P's pool slot; a 2000-pair
// batch (16 KB of pairs, ~12 KB of reply) is kept whole.
const (
	maxPooledPairs = 4096
	maxPooledOut   = 32 << 10
)

var wireBufs = sync.Pool{New: func() any { return new(wireBuf) }}

func getWireBuf() *wireBuf { return wireBufs.Get().(*wireBuf) }

func putWireBuf(b *wireBuf) {
	if cap(b.pairs) > maxPooledPairs {
		b.pairs = nil
	}
	if cap(b.out) > maxPooledOut {
		b.out = nil
	}
	wireBufs.Put(b)
}

// pairDecoder reads a /batch body through a fixed window. It accepts
// exactly
//
//	{ "pairs" : [ [ S , T ] , ... ] }
//
// with optional JSON whitespace between tokens, where S and T are
// non-negative decimal integers that fit a graph.Vertex, written as JSON
// writes them (no sign, no leading zero, no fraction or exponent).
// Everything else is an error naming the byte offset: encoding/json
// filled a missing element with 0, dropped a third one, read null as
// [0,0] and stopped before trailing bytes, each time answering a
// question the client did not ask.
type pairDecoder struct {
	r        io.Reader
	buf      []byte
	pos, end int   // buf[pos:end] is read and not yet consumed
	off      int64 // body offset of buf[0]
	err      error // what ended the body: io.EOF, or a read error
}

// fill replaces the consumed window with the next one.
func (d *pairDecoder) fill() bool {
	for d.err == nil {
		d.off += int64(d.end)
		d.pos = 0
		d.end, d.err = d.r.Read(d.buf)
		if d.end > 0 {
			return true
		}
	}
	return false
}

func (d *pairDecoder) next() (byte, bool) {
	if d.pos == d.end && !d.fill() {
		return 0, false
	}
	c := d.buf[d.pos]
	d.pos++
	return c, true
}

// unread puts back the byte next just returned.
func (d *pairDecoder) unread() { d.pos-- }

// token returns the next byte that is not JSON whitespace.
func (d *pairDecoder) token() (byte, bool) {
	for {
		c, ok := d.next()
		if !ok || (c != ' ' && c != '\n' && c != '\t' && c != '\r') {
			return c, ok
		}
	}
}

// bad is the error for (c, ok) as next or token just returned it, where
// the grammar wants something else.
func (d *pairDecoder) bad(c byte, ok bool, want string) error {
	at := d.off + int64(d.pos)
	switch {
	case ok:
		return fmt.Errorf("bad body: %q at byte %d, want %s", c, at-1, want)
	case d.err != io.EOF:
		return fmt.Errorf("bad body: %w", d.err)
	}
	return fmt.Errorf("bad body: ends at byte %d, want %s", at, want)
}

// want consumes optional whitespace and then exactly the bytes of lit.
func (d *pairDecoder) want(lit string) error {
	c, ok := d.token()
	for i := 0; ; i++ {
		if !ok || c != lit[i] {
			return d.bad(c, ok, "'"+lit+"'")
		}
		if i == len(lit)-1 {
			return nil
		}
		c, ok = d.next()
	}
}

func (d *pairDecoder) vertex() (graph.Vertex, error) {
	c, ok := d.token()
	if !ok || c < '0' || c > '9' {
		return 0, d.bad(c, ok, "a non-negative integer")
	}
	v := int64(c - '0')
	for {
		c, ok = d.next()
		if !ok {
			return graph.Vertex(v), nil // whoever wants the next token reports the end
		}
		if c < '0' || c > '9' {
			d.unread()
			return graph.Vertex(v), nil
		}
		if v == 0 {
			return 0, d.bad(c, ok, "no digit after a leading 0")
		}
		if v = v*10 + int64(c-'0'); v > math.MaxInt32 {
			return 0, d.bad(c, ok, "a vertex id of at most 2147483647")
		}
	}
}

// decodePairs parses the body r into b.pairs and returns them. It stops
// at the first byte that breaks the grammar and at pair limit+1, so a
// hostile body costs what was read up to there and b.pairs never holds
// more than limit pairs. A failed read is wrapped (errors.As finds an
// *http.MaxBytesError).
func (b *wireBuf) decodePairs(r io.Reader, limit int) ([][2]graph.Vertex, error) {
	d := pairDecoder{r: r, buf: b.rd[:]}
	b.pairs = b.pairs[:0]
	for _, lit := range [...]string{`{`, `"pairs"`, `:`, `[`} {
		if err := d.want(lit); err != nil {
			return nil, err
		}
	}
	c, ok := d.token()
	if !ok || c != ']' {
		if ok {
			d.unread() // the first pair's '['
		}
		for {
			if err := d.want(`[`); err != nil {
				return nil, err
			}
			if len(b.pairs) == limit {
				return nil, fmt.Errorf("batch exceeds limit %d: pair %d starts at byte %d",
					limit, limit+1, d.off+int64(d.pos)-1)
			}
			var p [2]graph.Vertex
			var err error
			if p[0], err = d.vertex(); err != nil {
				return nil, err
			}
			if err = d.want(`,`); err != nil {
				return nil, err
			}
			if p[1], err = d.vertex(); err != nil {
				return nil, err
			}
			if err = d.want(`]`); err != nil {
				return nil, err
			}
			b.pairs = append(b.pairs, p)
			if c, ok = d.token(); ok && c == ']' {
				break
			}
			if !ok || c != ',' {
				return nil, d.bad(c, ok, "',' or ']'")
			}
		}
	}
	if err := d.want(`}`); err != nil {
		return nil, err
	}
	if c, ok = d.token(); ok || d.err != io.EOF {
		return nil, d.bad(c, ok, "the end of the body")
	}
	return b.pairs, nil
}

func appendDist(b []byte, d graph.Dist) []byte {
	return strconv.AppendInt(b, encodeDist(d), 10)
}

// appendQueryReply appends the /query reply, byte for byte what
// encoding/json made of queryResponse.
func appendQueryReply(b []byte, s, t graph.Vertex, d graph.Dist) []byte {
	b = append(b, `{"s":`...)
	b = strconv.AppendInt(b, int64(s), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(t), 10)
	b = append(b, `,"dist":`...)
	b = appendDist(b, d)
	b = append(b, `,"reachable":`...)
	b = strconv.AppendBool(b, d != graph.Inf)
	return append(b, "}\n"...)
}

// appendBatchReply appends the /batch reply, byte for byte what
// encoding/json made of batchResponse.
func appendBatchReply(b []byte, dists []graph.Dist) []byte {
	b = append(b, `{"dists":[`...)
	for i, d := range dists {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendDist(b, d)
	}
	return append(b, "]}\n"...)
}

// jsonContentType is shared by every reply's header map; nothing writes
// through a header value slice.
var jsonContentType = []string{"application/json"}

// writeReply sends a complete 200 reply. With the length declared,
// net/http writes a body of any size as it is instead of chunk-encoding
// what does not fit its 2 KiB buffer.
func writeReply(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// queryParam returns the value of the first name=value segment of a raw
// query string, as written: vertex ids and counts are plain decimals,
// so nothing is percent-decoded and no url.Values maps are built.
func queryParam(rawQuery, name string) string {
	for rawQuery != "" {
		var seg string
		seg, rawQuery, _ = strings.Cut(rawQuery, "&")
		if k, v, _ := strings.Cut(seg, "="); k == name {
			return v
		}
	}
	return ""
}
