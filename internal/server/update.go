package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"parapll/internal/compact"
	"parapll/internal/dynamic"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/oracle"
	"parapll/internal/wal"
)

// routeUpdate registers POST /update.
func (s *Server) routeUpdate() {
	s.handleSnap("/update", http.MethodPost, maxUpdateBytes, s.handleUpdate)
}

// Updater is the living-graph seam behind POST /update: an updatable
// oracle (compact.Pipeline in production) that durably logs and applies
// edge inserts while serving queries. Stats feeds the /stats "wal"
// section and the wal.* / compact.* gauges on /metrics.
type Updater interface {
	oracle.Oracle
	Update(u, v graph.Vertex, w graph.Dist) error
	Stats() compact.Stats
}

// The production updater.
var _ Updater = (*compact.Pipeline)(nil)

// Updater returns the current snapshot's living-graph updater (nil
// before the first publish and on a static snapshot).
func (s *Server) Updater() Updater {
	if sn := label.Acquire(&s.snap); sn != nil {
		defer sn.release()
		return sn.up
	}
	return nil
}

// walStats reads up's stats and mirrors them into the wal.* / compact.*
// gauges, or returns nil when up is nil. Called at scrape/stat time rather
// than per update: gauges are point-in-time reads anyway, and this
// keeps /update's hot path to the pipeline's own work.
func (s *Server) walStats(up Updater) *compact.Stats {
	if up == nil {
		return nil
	}
	st := up.Stats()
	s.opt.Registry.Gauge("wal.records").Set(int64(st.WALRecords))
	s.opt.Registry.Gauge("wal.bytes").Set(st.WALBytes)
	s.opt.Registry.Gauge("compact.generation").Set(int64(st.Compactions))
	s.opt.Registry.Gauge("compact.last_unix_nano").Set(st.LastCompactUnixNano)
	s.opt.Registry.Gauge("compact.delta_entries").Set(st.DeltaEntries)
	return &st
}

// maxUpdateBytes bounds the /update request body (three small ints)
// before JSON decoding starts.
const maxUpdateBytes = 1 << 16

// updateRequest / updateResponse are the /update wire types. Fields are
// int64 so range violations arrive as values we can reject explicitly
// instead of silently truncating into a "valid" vertex or weight, and
// pointers so a missing member is an error rather than a zero: a logged
// edge is never deleted, so the body must name the whole edge.
type updateRequest struct {
	U *int64 `json:"u"`
	V *int64 `json:"v"`
	W *int64 `json:"w"`
}
type updateResponse struct {
	Status     string `json:"status"`
	WalRecords int    `json:"wal_records"`
	Generation uint64 `json:"generation"`
}

// handleUpdate serves POST /update: durably insert one undirected edge
// through the living-graph pipeline. The pipeline acknowledges only
// after the WAL fsync, so a 200 here means the edge survives kill -9.
// On a static snapshot the endpoint answers 412; invalid edges 400; any
// insert once a write or fsync of the log has failed 503, until a
// restart.
func (s *Server) handleUpdate(sn *snapshot, w http.ResponseWriter, r *http.Request) {
	up := sn.up
	if up == nil {
		writeErr(w, http.StatusPreconditionFailed,
			errors.New("server was started without -wal (no living-graph pipeline)"))
		return
	}
	u, v, wt, err := decodeUpdate(r.Body)
	if err != nil {
		writeBodyErr(w, fmt.Errorf("bad body: %w", err))
		return
	}
	n := int64(up.NumVertices())
	if u < 0 || u >= n || v < 0 || v >= n {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("edge {%d,%d} out of range [0,%d)", u, v, n))
		return
	}
	note(w).pair = packPair(graph.Vertex(u), graph.Vertex(v))
	if wt <= 0 || wt >= int64(graph.Inf) {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("weight %d outside (0, %d)", wt, graph.Inf))
		return
	}
	if err := up.Update(graph.Vertex(u), graph.Vertex(v), graph.Dist(wt)); err != nil {
		switch {
		case errors.Is(err, dynamic.ErrInvalid):
			writeErr(w, http.StatusBadRequest, err)
		case errors.Is(err, wal.ErrFailed):
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, updateResponse{
		Status:     "ok",
		WalRecords: up.Stats().WALRecords,
		Generation: sn.gen,
	})
}

// decodeUpdate reads an /update body: one object with exactly the
// members u, v and w, and nothing after it.
func decodeUpdate(body io.Reader) (u, v, w int64, err error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req updateRequest
	if err := dec.Decode(&req); err != nil {
		return 0, 0, 0, err
	}
	if req.U == nil || req.V == nil || req.W == nil {
		return 0, 0, 0, errors.New(`want the members "u", "v" and "w"`)
	}
	if _, err := dec.Token(); err != io.EOF {
		return 0, 0, 0, fmt.Errorf("data after the object at byte %d", dec.InputOffset())
	}
	return *req.U, *req.V, *req.W, nil
}
