package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"parapll/internal/compact"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/qcache"
)

// routeQueries registers the distance endpoints and /stats.
func (s *Server) routeQueries() {
	s.handleSnap("/query", http.MethodGet, 0, s.handleQuery)
	s.handleSnap("/batch", http.MethodPost, maxBatchBytes, s.handleBatch)
	s.handleSnap("/path", http.MethodGet, 0, s.handlePath)
	s.handleSnap("/stats", http.MethodGet, 0, s.handleStats)
}

func vertexParam(sn *snapshot, r *http.Request, name string) (graph.Vertex, error) {
	raw := queryParam(r.URL.RawQuery, name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q", raw)
	}
	if v < 0 || int(v) >= sn.ora.NumVertices() {
		return 0, fmt.Errorf("vertex %d out of range [0,%d)", v, sn.ora.NumVertices())
	}
	return graph.Vertex(v), nil
}

// pairParams reads a pair endpoint's s and t, answering 400 itself when
// either is missing, malformed or out of range.
func pairParams(sn *snapshot, w http.ResponseWriter, r *http.Request) (src, dst graph.Vertex, ok bool) {
	src, err := vertexParam(sn, r, "s")
	if err == nil {
		dst, err = vertexParam(sn, r, "t")
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return 0, 0, false
	}
	note(w).pair = packPair(src, dst)
	return src, dst, true
}

// encodeDist is a distance as the wire carries it: -1 when unreachable.
func encodeDist(d graph.Dist) int64 {
	if d == graph.Inf {
		return -1
	}
	return int64(d)
}

func (s *Server) handleQuery(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	src, dst, ok := pairParams(sn, w, r)
	if !ok {
		return
	}
	var d graph.Dist
	if c, ok := sn.ora.(*qcache.Cached); ok {
		// Same lookup as Query, plus the hit bit for the request span: a
		// slow cache *hit* indicts the HTTP layer, a slow miss the merge
		// kernel.
		var hit bool
		d, hit = c.QueryNote(src, dst)
		sw := note(w)
		sw.cache = cacheMiss
		if hit {
			sw.cache = cacheHit
		}
	} else {
		d = sn.ora.Query(src, dst)
	}
	b := getWireBuf()
	b.out = appendQueryReply(b.out[:0], src, dst, d)
	writeReply(w, b.out)
	putWireBuf(b)
}

const (
	maxBatch = 100000
	// maxBatchBytes bounds the /batch request body: a maxBatch-pair
	// payload of maximal vertex ids is ~2 MiB, so 8 MiB leaves headroom
	// without letting a client stream gigabytes into the decoder.
	maxBatchBytes = 8 << 20
)

// handleBatch serves POST /batch: {"pairs":[[s,t],...]} in, {"dists":[...]}
// out in the same order, -1 for unreachable (see pairDecoder for exactly
// which bodies are accepted).
func (s *Server) handleBatch(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	b := getWireBuf()
	defer putWireBuf(b)
	pairs, err := b.decodePairs(r.Body, maxBatch)
	if err != nil {
		writeBodyErr(w, err)
		return
	}
	n := sn.ora.NumVertices()
	for i, p := range pairs {
		if int(p[0]) >= n || int(p[1]) >= n { // the decoder admits no negative id
			writeErr(w, http.StatusBadRequest, fmt.Errorf("pair %d out of range", i))
			return
		}
	}
	b.out = appendBatchReply(b.out[:0], sn.ora.QueryBatch(pairs, s.opt.BatchThreads))
	writeReply(w, b.out)
}

// pathResponse is the /path reply.
type pathResponse struct {
	Path []graph.Vertex `json:"path"`
	Dist int64          `json:"dist"`
}

// handlePath serves GET /path?s=A&t=B: a shortest path walked over the
// snapshot's graph by exact distances (graph.Path). The walk asks the
// index, not the cached oracle, so its neighbour probes do not evict the
// cache's hot pairs.
func (s *Server) handlePath(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	if sn.g == nil {
		writeErr(w, http.StatusNotFound, errors.New("no graph beside this index (start the server with -graph)"))
		return
	}
	if src, dst, ok := pairParams(sn, w, r); ok {
		path, d := graph.Path(sn.g, sn.idx, src, dst)
		writeJSON(w, http.StatusOK, pathResponse{Path: path, Dist: encodeDist(d)})
	}
}

// statsResponse is the /stats reply.
type statsResponse struct {
	Vertices     int           `json:"vertices"`
	Entries      int64         `json:"entries"`
	AvgLabelSize float64       `json:"avg_label_size"`
	Head         int           `json:"head"`         // dense head columns K (label.Index.Head)
	HeadDensity  float64       `json:"head_density"` // share of the n x K head slots holding an entry
	Mid          int           `json:"mid"`          // bitmap columns K2 (label.Index.Mid)
	MidDensity   float64       `json:"mid_density"`  // share of the n x K2 bits that are set
	DistBytes    int           `json:"dist_bytes"`   // bytes a stored distance: 1, 2 or 4 (label.Index.DistBytes)
	HubBytes     int           `json:"hub_bytes"`    // bytes a tail hub id: 2 or 4 (label.Index.HubBytes)
	HasPathIndex bool          `json:"has_path_index"`
	Generation   uint64        `json:"generation"`
	Format       string        `json:"format"`
	Mmap         bool          `json:"mmap"`
	Source       string        `json:"source,omitempty"`
	Cache        *qcache.Stats `json:"cache,omitempty"`
	// Wal is present only in living-graph mode: the pipeline's WAL
	// length/bytes and compaction history.
	Wal *compact.Stats `json:"wal,omitempty"`
}

func (s *Server) statsPayload(sn *snapshot) statsResponse {
	k, density := sn.idx.Head()
	k2, midDensity := sn.idx.Mid()
	resp := statsResponse{
		Vertices:     sn.idx.NumVertices(),
		Entries:      sn.idx.NumEntries(),
		AvgLabelSize: sn.idx.AvgLabelSize(),
		Head:         k,
		HeadDensity:  density,
		Mid:          k2,
		MidDensity:   midDensity,
		DistBytes:    sn.idx.DistBytes(),
		HubBytes:     sn.idx.HubBytes(),
		HasPathIndex: sn.g != nil,
		Generation:   sn.gen,
		Format:       sn.idx.Format(),
		Mmap:         sn.idx.Mapped(),
		Source:       sn.source,
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = &st
	}
	resp.Wal = s.walStats(sn.up)
	return resp
}

func (s *Server) handleStats(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsPayload(sn))
}

// StatsPayload returns the /stats payload for the current snapshot (nil
// before the first Publish) — the flight recorder's Stats source, so a
// bundle embeds exactly what /stats would have answered at capture time.
func (s *Server) StatsPayload() any {
	sn := label.Acquire(&s.snap)
	if sn == nil {
		return nil
	}
	defer sn.release()
	return s.statsPayload(sn)
}
