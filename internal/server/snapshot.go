package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/metrics"
	"parapll/internal/oracle"
	"parapll/internal/qcache"
)

// routeSnapshots registers the endpoints that act on the snapshot as a
// whole.
func (s *Server) routeSnapshots() {
	s.handle("/reload", http.MethodPost, maxReloadBytes, s.handleReload)
	s.handle("/readyz", http.MethodGet, 0, s.handleReadyz)
}

// snapshot is one immutable generation of serving state. All fields are
// written before the snapshot is published and never after, except the
// reference count.
type snapshot struct {
	label.Refs // the requests reading it, plus the server's until the next publish

	idx    *label.Index
	ora    oracle.Oracle // the query surface handlers program against
	g      *graph.Graph  // the graph idx indexes, for /path; nil: 404
	up     Updater       // non-nil in living-graph mode; then ora == up
	gen    uint64
	source string // file the index was loaded from; "" if in-memory
}

// release drops a reference to sn; the last closes its index.
func (sn *snapshot) release() {
	if sn.Refs.Release() {
		sn.idx.Close()
	}
}

// Loader loads an index file for Reload (which decides whether the
// graph /path walks carries over).
type Loader func(path string) (*label.Index, error)

// Reload error sentinels, mapped to HTTP statuses by POST /reload.
var (
	// ErrNoLoader means the server was built around an in-memory index
	// and has no way to load another one.
	ErrNoLoader = errors.New("server: no loader configured")
	// ErrReloadBusy means another reload is still in progress.
	ErrReloadBusy = errors.New("server: reload already in progress")
	// ErrLiveReload means a living-graph server was asked to load a file
	// other than its own checkpoint.
	ErrLiveReload = errors.New("server: a living graph reloads only its own checkpoint")
)

// ReloadFailures returns the counter behind the watchdog's
// reload-failure rule, so cmd/parapll-server can register the rule on
// the exact counter the serve path increments.
func (s *Server) ReloadFailures() *metrics.Counter { return s.reloadFailures }

// SetCacheEntries bounds the (s,t) distance cache fronting every
// snapshot published afterwards; entries <= 0 disables caching. The
// cache holds at most entries answers, fewer when qcache.New rounds
// down (/stats cache.capacity reports the real bound). Hit,
// miss and eviction counts are recorded in this server's registry as
// cache.hits / cache.misses / cache.evictions. Call before the first
// Publish — snapshots already published keep serving uncached.
func (s *Server) SetCacheEntries(entries int) {
	if entries <= 0 {
		s.cache = nil
		return
	}
	c := qcache.New(entries)
	c.SetCounters(
		s.opt.Registry.Counter("cache.hits"),
		s.opt.Registry.Counter("cache.misses"),
		s.opt.Registry.Counter("cache.evictions"),
	)
	s.cache = c
}

// Generation returns the current snapshot's generation (0 = none yet).
func (s *Server) Generation() uint64 {
	if sn := label.Acquire(&s.snap); sn != nil {
		defer sn.release()
		return sn.gen
	}
	return 0
}

// Publish atomically swaps in new static serving state and returns its
// generation. In-flight requests keep the snapshot they started with;
// new requests see the new one. Safe to call concurrently with
// traffic. The server owns idx from here: it closes it once a later
// publish has replaced it and the last request reading it is done. g,
// the graph idx indexes, is optional and kept only when its vertex
// count is the index's: with it the snapshot answers /path, without it
// /path answers 404.
func (s *Server) Publish(idx *label.Index, g *graph.Graph, source string) uint64 {
	return s.publish(nil, idx, g, source).Generation
}

// PublishLive is Publish in living-graph mode: the snapshot serves
// queries and POST /update through up (uncached — see the package doc),
// with idx, loaded from source, as the checkpoint artifact beside it;
// the server owns idx as Publish does.
func (s *Server) PublishLive(up Updater, idx *label.Index, source string) uint64 {
	return s.publish(up, idx, nil, source).Generation
}

// publish is Publish returning what it published, read before the swap,
// so handleReload's response describes the snapshot this call created:
// a second load of the pointer could observe a different, concurrent
// publish, and once swapped in, the snapshot may be replaced and its
// index closed at any time.
func (s *Server) publish(up Updater, idx *label.Index, g *graph.Graph, source string) reloadResponse {
	if g != nil && g.NumVertices() != idx.NumVertices() {
		g = nil
	}
	gen := s.gen.Add(1)
	ora := oracle.Oracle(idx)
	if up != nil {
		// Living-graph mode: the pipeline is the query surface. No cache
		// wrap: distances mutate within this generation, and a cached
		// overestimate would survive the insert that shortened it.
		ora = up
	} else if s.cache != nil {
		// label.Index is undirected, so (s,t) and (t,s) share one cache
		// entry. The wrapper carries this snapshot's generation: a
		// reload can never serve distances from the previous graph.
		ora = qcache.Wrap(idx, s.cache, gen, qcache.Options{Symmetric: true})
	}
	sn := &snapshot{
		idx:    idx,
		ora:    ora,
		g:      g,
		up:     up,
		gen:    gen,
		source: source,
	}
	out := reloadResponse{Status: "ok", Generation: gen, Source: source,
		Vertices: idx.NumVertices(), Format: idx.Format(), Mmap: idx.Mapped()}
	if old := s.snap.Swap(sn); old != nil {
		old.release()
	}
	s.generation.Set(int64(gen))
	if s.afterStore != nil {
		s.afterStore(sn)
	}
	return out
}

// Reload loads an index file and publishes it. An empty path reloads
// the current snapshot's source file. Only one reload runs at a time
// (ErrReloadBusy otherwise); queries are never blocked — they serve the
// old snapshot until the atomic swap. The current snapshot's graph is
// carried over only when the reload re-reads the same source file (and
// Publish keeps it): a different artifact indexes another graph, so
// /path answers 404 after it. A living snapshot's updater is carried
// over too, and it reloads only its own checkpoint (ErrLiveReload
// otherwise).
func (s *Server) Reload(path string) (uint64, error) {
	out, err := s.reload(path)
	return out.Generation, err
}

// reload implements Reload and returns what it published. The
// current snapshot is loaded exactly once, up front: the empty-path
// resolution, the living-graph check and the graph carry-over decision
// read that one value, so a concurrent publish mid-reload cannot split
// the decisions across generations.
func (s *Server) reload(path string) (_ reloadResponse, err error) {
	defer func() {
		if err != nil && !errors.Is(err, ErrReloadBusy) && !errors.Is(err, ErrLiveReload) {
			// Busy and a refused path are the 409s, not failures of the
			// serving artifact; everything else feeds the watchdog's
			// reload-failure rule and the flight recorder's error ring.
			s.reloadFailures.Inc()
			if s.opt.Flight != nil {
				s.opt.Flight.RecordError("reload", err)
			}
		}
	}()
	if s.opt.Loader == nil {
		return reloadResponse{}, ErrNoLoader
	}
	if !s.reloadMu.TryLock() {
		return reloadResponse{}, ErrReloadBusy
	}
	defer s.reloadMu.Unlock()
	cur := label.Acquire(&s.snap)
	if cur == nil {
		cur = &snapshot{} // nothing published: no source, graph or updater to carry
	} else {
		defer cur.release()
	}
	if path == "" {
		path = cur.source
	}
	if path == "" {
		return reloadResponse{}, fmt.Errorf("server: no index path to reload (served index was built in memory)")
	}
	if cur.up != nil && path != cur.source {
		return reloadResponse{}, fmt.Errorf("%w: serving %s, asked for %s", ErrLiveReload, cur.source, path)
	}
	idx, err := s.opt.Loader(path)
	if err != nil {
		return reloadResponse{}, fmt.Errorf("server: reloading %s: %w", path, err)
	}
	var g *graph.Graph
	if path == cur.source {
		g = cur.g // publish drops it if the vertex count moved
	}
	return s.publish(cur.up, idx, g, path), nil
}

// maxReloadBytes bounds the /reload request body (a single file path)
// before JSON decoding starts.
const maxReloadBytes = 1 << 20

// reloadRequest / reloadResponse are the /reload wire types.
type reloadRequest struct {
	Path string `json:"path"`
}
type reloadResponse struct {
	Status     string `json:"status"`
	Generation uint64 `json:"generation"`
	Source     string `json:"source"`
	Vertices   int    `json:"vertices"`
	Format     string `json:"format"`
	Mmap       bool   `json:"mmap"`
}

// handleReload serves POST /reload: load a fresh index (optionally from
// a different path) and swap it in atomically. The load happens on this
// request's goroutine; every other request keeps serving the old
// snapshot until the swap.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	var req reloadRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeBodyErr(w, fmt.Errorf("bad body: %w", err))
		return
	}
	// The response describes the snapshot this reload published, not
	// whatever s.snap holds by response time — a concurrent publish
	// between reload and a re-load of the pointer could attribute a
	// different generation to this request.
	out, err := s.reload(req.Path)
	if err != nil {
		switch {
		case errors.Is(err, ErrReloadBusy), errors.Is(err, ErrLiveReload):
			writeErr(w, http.StatusConflict, err)
		case errors.Is(err, ErrNoLoader):
			writeErr(w, http.StatusPreconditionFailed, err)
		default:
			writeErr(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, out)
}

// handleReadyz distinguishes "process up" (/healthz) from "index
// published and answering" — the signal a load balancer or orchestrator
// should gate traffic on, since the listener comes up before the index
// finishes loading.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	sn := label.Acquire(&s.snap)
	if sn == nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "loading"})
		return
	}
	defer sn.release()
	// A living graph whose log has failed still answers reads, but takes
	// no update until it is restarted: not ready, and this is why.
	if sn.up != nil {
		if reason := sn.up.Stats().WALFailed; reason != "" {
			writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "wal failed", "reason": reason})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ready", "generation": sn.gen})
}
