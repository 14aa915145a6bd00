// Package compact is the living-graph pipeline: a serving-side wrapper
// that keeps a dynamic PLL index exact under a stream of edge inserts
// while a background compactor periodically folds the accumulated
// updates into a fresh checkpoint artifact and rolls the serving index
// onto it — LSM discipline applied to distance labeling.
//
// # State machine
//
// A Pipeline owns three durable files in one directory:
//
//	wal.log    the fsynced edge-update log (internal/wal)
//	graph.bin  the last compacted graph (checkpoint base)
//	index.midx the last compacted index, exact for graph.bin
//
// and two in-memory pieces: the checkpoint graph and a dynamic.Index
// whose base is index.midx, mapped, and whose delta is every WAL
// record's repair (the live overlay). The invariant, held at every
// instant including across kill -9: checkpoint index + full WAL replay
// = exact index for checkpoint graph + WAL edges. Open reconstructs
// exactly that, so an acknowledged update is never lost and a queried
// distance is never wrong after recovery.
//
// # Update path
//
// Update is log-before-apply: validate (CheckInsert), append + fsync to
// the WAL, then repair the live index — so any record that reaches the
// log is one the index accepts on apply and on crash replay, and any
// crash between the two is healed by replay idempotence (re-inserting
// an edge the index already has never changes a distance).
//
// # Compaction
//
// When the WAL holds n records, Compact folds them into the graph and
// makes a fresh exact index: for n <= DefaultFoldLimit it freezes the live
// labels under the writer mutex (dynamic.Freeze), with zero search work;
// for larger n the build engine rebuilds into a label store. The pair is
// saved (graph.bin first, then index.midx, each by atomic
// temp+fsync+rename; the frozen labels or the store finalize straight
// into index.midx's temp file), index.midx is mapped as the next live
// index's base, and a short swap replays the records that arrived
// mid-compaction, publishes the new index and truncates the folded
// prefix off the WAL. Every crash window in that sequence leaves a
// (checkpoint, WAL) pair whose replay is exact — a stale index beside a
// newer graph only overestimates, and the untruncated WAL replay repairs
// precisely those pairs.
//
// # Concurrency
//
// Queries take no lock: they load the live dynamic.Index, which serves
// lock-free readers beside its one writer, from an atomic pointer. The
// writer mutex serializes Update, the fold point and the swap;
// compactMu, taken first, serializes compactions, whose expensive work
// (fold, rebuild, artifact writes) runs outside the writer mutex.
package compact

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parapll/internal/core"
	"parapll/internal/dynamic"
	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/trace"
	"parapll/internal/wal"
)

// File names inside the pipeline directory.
const (
	WALFile   = "wal.log"
	GraphFile = "graph.bin"
	IndexFile = "index.midx"
)

// DefaultFoldLimit is the update count up to which compaction folds the
// live repaired labels instead of rebuilding. A fold is O(index size);
// past it a from-scratch engine build off the serving path wins.
const DefaultFoldLimit = 64

// Options configures a Pipeline.
type Options struct {
	// Dir is the pipeline directory holding wal.log and the checkpoint
	// artifacts. Required; created if missing.
	Dir string
	// Graph is the base graph used when no graph.bin checkpoint exists
	// yet (first boot). Required.
	Graph *graph.Graph
	// Index, when non-nil, seeds the first boot (no checkpoint on disk)
	// with an already-built index for Graph instead of a build in Open; a
	// checkpoint, newer by construction, supersedes it.
	Index *label.Index
	// CompactEvery triggers a background compaction whenever the WAL
	// reaches this many records; <= 0 means compaction runs only when
	// Compact is called explicitly.
	CompactEvery int
	// Threads sizes the first-boot build (when Dir holds no checkpoint)
	// and every compaction rebuild (as core.Options.Threads; <= 0 means
	// GOMAXPROCS).
	Threads int
	// Tracer, when non-nil, records a wal.append span on trace.TIDWAL for
	// each sampled update and a compact.run span on trace.TIDCompact for
	// every compaction while it is enabled.
	Tracer *trace.Tracer
	// OnPublish, when non-nil, is called at the end of every completed
	// compaction, outside the writer mutex but still inside compactMu
	// (so it must not call Compact or Close) — the server uses it to
	// bump its snapshot generation and metrics.
	OnPublish func(Report)
	// OnFsync, when non-nil, receives the duration of every WAL append
	// fsync (wal.Log.SetSyncObserver), inside the WAL's critical section,
	// so it must be cheap: the watchdog feeds a latency histogram.
	OnFsync func(elapsed time.Duration)
	// Logf, when non-nil, receives progress lines and failures.
	Logf func(format string, args ...any)
	// FS is the filesystem every write to Dir goes through: the WAL and
	// the checkpoint saves. Nil means fileio.OS; tests inject faults here.
	FS fileio.FS
}

// Report describes one completed compaction.
type Report struct {
	// Mode is "fold" (live labels finalized) or "rebuild" (engine build).
	Mode string
	// Folded is how many WAL records the checkpoint absorbed.
	Folded int
	// Tail is how many records arrived mid-compaction, replayed in the swap.
	Tail int
	// BuildTime covers producing the new exact labels: the freeze or the
	// engine's search, and the graph fold.
	BuildTime time.Duration
	// SaveTime covers writing graph.bin, finalizing the labels into
	// index.midx and mapping it.
	SaveTime time.Duration
	// SwapTime is the publish window under the writer mutex — tail
	// replay, index swap and WAL truncation; the pipeline's
	// publish-to-visible latency.
	SwapTime time.Duration
	// Generation is the pipeline's compaction count after this run.
	Generation uint64
}

// Stats is a point-in-time snapshot of the pipeline's observable state,
// shaped for the server's /stats and /metrics endpoints.
type Stats struct {
	WALRecords   int    `json:"wal_records"`
	WALBytes     int64  `json:"wal_bytes"`
	Updates      uint64 `json:"updates_total"`
	Compactions  uint64 `json:"compactions_total"`
	Compacting   bool   `json:"compacting"`
	CompactEvery int    `json:"compact_every"`
	// CompactingSinceUnixNano is when the compaction in flight started, 0
	// when none runs — the watchdog's stalled-compaction signal.
	CompactingSinceUnixNano int64 `json:"compacting_since_unix_nano,omitempty"`
	// LastCompactUnixNano is 0 until the first compaction completes.
	LastCompactUnixNano int64  `json:"last_compaction_unix_nano"`
	LastCompactMode     string `json:"last_compaction_mode,omitempty"`
	LastSwapNanos       int64  `json:"last_swap_nanos,omitempty"`
	// DeltaEntries is the live index's delta size: it climbs between
	// compactions and falls to the tail's at each swap.
	DeltaEntries int64 `json:"delta_entries"`
	// WALFailed is why the log takes no more records (wal.Log.Err), empty
	// while it does. Only a restart clears it.
	WALFailed string `json:"wal_failed,omitempty"`
}

// Pipeline is the living-graph serving surface. It implements
// oracle.Oracle (lock-free queries) plus Update (durable edge insert)
// and Compact (checkpoint roll). Create with Open, release with Close.
type Pipeline struct {
	opt Options
	log *wal.Log

	mu       sync.Mutex                    // the writer mutex: Update, the fold point and the swap
	cur      *dynamic.Index                // the index inserts go to; under mu
	live     atomic.Pointer[dynamic.Index] // cur, for queries
	curGraph *graph.Graph

	compactMu    sync.Mutex   // serializes whole compactions
	compactSince atomic.Int64 // start of the in-flight compaction; 0 when idle
	updates      atomic.Uint64
	compactions  atomic.Uint64
	lastCompact  atomic.Int64
	lastSwap     atomic.Int64
	lastMode     atomic.Pointer[string]

	kickC chan struct{}
	stopC chan struct{}
	doneC chan struct{}
}

// Open builds a Pipeline from the directory's durable state: load the
// checkpoint pair if present (falling back to opt.Graph / opt.Index /
// an engine build on first boot), then replay the WAL on top so the
// live index is exact for the full pre-crash edge set. The WAL's own
// Open truncates any torn tail first.
func Open(opt Options) (*Pipeline, error) {
	if opt.Dir == "" {
		return nil, fmt.Errorf("compact: Options.Dir is required")
	}
	if opt.Graph == nil {
		return nil, fmt.Errorf("compact: Options.Graph is required")
	}
	if opt.Index != nil && opt.Index.NumVertices() != opt.Graph.NumVertices() {
		return nil, fmt.Errorf("compact: Options.Index covers %d vertices, Options.Graph has %d", opt.Index.NumVertices(), opt.Graph.NumVertices())
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("compact: creating %s: %w", opt.Dir, err)
	}
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if opt.FS == nil {
		opt.FS = fileio.OS
	}

	// Checkpoint graph: the folded one on disk supersedes the boot graph
	// (it is the boot graph plus every previously compacted insert).
	g := opt.Graph
	gpath := filepath.Join(opt.Dir, GraphFile)
	if _, err := os.Stat(gpath); err == nil {
		cg, err := fileio.LoadGraph(gpath)
		if err != nil {
			return nil, fmt.Errorf("compact: loading checkpoint graph: %w", err)
		}
		if cg.NumVertices() != g.NumVertices() {
			return nil, fmt.Errorf("compact: checkpoint graph has %d vertices, boot graph %d — wrong -wal directory for this graph",
				cg.NumVertices(), g.NumVertices())
		}
		g = cg
	}

	// First boot: persist whatever checkpoint piece is missing, so the
	// next restart resumes in O(artifact) instead of rebuilding, and the
	// serving layer can always publish Dir/index.midx as its snapshot
	// source. Graph first — see the crash-window analysis above.
	if _, err := os.Stat(gpath); err != nil {
		if err := fileio.SaveGraph(opt.FS, gpath, g); err != nil {
			return nil, fmt.Errorf("compact: saving initial checkpoint graph: %w", err)
		}
	}
	ipath := filepath.Join(opt.Dir, IndexFile)
	if _, err := os.Stat(ipath); err != nil {
		if opt.Index != nil && g == opt.Graph {
			err = fileio.SaveIndex(opt.FS, ipath, opt.Index)
		} else {
			opt.Logf("compact: no checkpoint index, building from %d vertices / %d edges", g.NumVertices(), g.NumEdges())
			_, err = fileio.SaveLabels(opt.FS, ipath, g.NumVertices(), build(g, opt.Threads))
		}
		if err != nil {
			return nil, fmt.Errorf("compact: saving initial checkpoint index: %w", err)
		}
	}
	// The checkpoint index, mapped, is the live index's base. A stale one
	// beside a newer graph.bin (crash between the two saves) only
	// overestimates, and the still-full WAL replay below repairs exactly
	// those pairs — so any surviving pair of files is safe to resume from.
	base, err := fileio.LoadIndex(ipath)
	if err != nil {
		return nil, fmt.Errorf("compact: loading checkpoint index: %w", err)
	}
	if base.NumVertices() != g.NumVertices() {
		return nil, fmt.Errorf("compact: checkpoint index covers %d vertices, graph has %d", base.NumVertices(), g.NumVertices())
	}

	log, ups, err := wal.OpenFS(opt.FS, filepath.Join(opt.Dir, WALFile))
	if err != nil {
		return nil, err
	}
	if opt.OnFsync != nil {
		log.SetSyncObserver(opt.OnFsync)
	}
	live := dynamic.FromIndex(g, base)
	for i, up := range ups {
		if err := live.InsertEdge(up.U, up.V, up.W); err != nil {
			log.Close()
			return nil, fmt.Errorf("compact: WAL record %d (%d,%d,%d) does not apply to this graph: %w", i, up.U, up.V, up.W, err)
		}
	}
	if len(ups) > 0 {
		opt.Logf("compact: replayed %d WAL records", len(ups))
	}

	p := &Pipeline{
		opt:      opt,
		log:      log,
		cur:      live,
		curGraph: g,
		kickC:    make(chan struct{}, 1),
		stopC:    make(chan struct{}),
		doneC:    make(chan struct{}),
	}
	p.live.Store(live)
	go p.loop()
	return p, nil
}

// loop is the background compactor: it waits for threshold kicks and
// runs one compaction per kick. A kick whose backlog a compaction has
// since folded is dropped: every Update during a compaction refills the
// kick, while the log still holds the records that compaction folds.
// Errors are logged, not fatal — the WAL keeps absorbing updates and the
// next kick retries.
func (p *Pipeline) loop() {
	defer close(p.doneC)
	for {
		select {
		case <-p.stopC:
			return
		case <-p.kickC:
			if p.log.Len() < p.opt.CompactEvery {
				continue
			}
			if _, err := p.Compact(); err != nil {
				p.opt.Logf("compact: background compaction failed: %v", err)
			}
		}
	}
}

// NumVertices implements oracle.Oracle: the boot graph's, as every
// checkpoint keeps them.
func (p *Pipeline) NumVertices() int { return p.opt.Graph.NumVertices() }

// Query implements oracle.Oracle.
func (p *Pipeline) Query(s, t graph.Vertex) graph.Dist { return p.live.Load().Query(s, t) }

// QueryWithHub implements oracle.Oracle.
func (p *Pipeline) QueryWithHub(s, t graph.Vertex) (graph.Dist, graph.Vertex) {
	return p.live.Load().QueryWithHub(s, t)
}

// QueryBatch implements oracle.Oracle, all of it on the index it loads.
func (p *Pipeline) QueryBatch(pairs [][2]graph.Vertex, threads int) []graph.Dist {
	return p.live.Load().QueryBatch(pairs, threads)
}

// Update durably inserts the undirected edge {u,v,w}: validate, append
// + fsync to the WAL, repair the live index — in that order, so every
// acknowledged insert survives kill -9 and every logged record is
// applicable on replay. Validation failures wrap dynamic.ErrInvalid; a
// log that can no longer make a record durable, wal.ErrFailed. A record
// logged and then not applied fails the log (see insert): that update's
// error says "logged; applied on restart", and every later one wraps
// wal.ErrFailed.
func (p *Pipeline) Update(u, v graph.Vertex, w graph.Dist) error {
	var tr *trace.Tracer // non-nil when this update is sampled
	var t0 int64
	if p.opt.Tracer.Sample() {
		tr = p.opt.Tracer
		t0 = tr.Now()
	}
	pending, err := p.insert(u, v, w)
	if err != nil {
		return err
	}
	if tr != nil {
		tr.Buf(trace.TIDWAL).Span(tr.Intern("wal.append", "u", "v", "w"), t0, tr.Now(),
			uint64(uint32(u)), uint64(uint32(v)), uint64(w))
	}
	p.updates.Add(1)
	if p.opt.CompactEvery > 0 && pending >= p.opt.CompactEvery {
		select { // kick a background compaction, unless one is queued
		case p.kickC <- struct{}{}:
		default:
		}
	}
	return nil
}

// insert is Update's critical section; it returns the WAL's length
// after it. The deferred unlock frees the writer mutex even when a fault
// in the mapped base (a checkpoint file cut under the process) panics
// through it.
func (p *Pipeline) insert(u, v graph.Vertex, w graph.Dist) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.cur.CheckInsert(u, v, w); err != nil {
		return 0, err
	}
	if err := p.log.Append(u, v, w); err != nil {
		return 0, fmt.Errorf("compact: durable append failed, insert not applied: %w", err)
	}
	// The record is durable. A fault applying it — an error, or the panic
	// of a mapped base cut under the process, which goes on as a panic —
	// can leave part of the insert in the live index, so it fails the
	// log: no later update lands on that half, and a restart replays the
	// record whole.
	defer func() {
		if r := recover(); r != nil {
			cause, ok := r.(error)
			if !ok {
				cause = fmt.Errorf("%v", r)
			}
			panic(p.applyFailed(u, v, w, cause))
		}
	}()
	if err := p.cur.InsertEdge(u, v, w); err != nil {
		return 0, p.applyFailed(u, v, w, err)
	}
	return p.log.Len(), nil
}

// applyFailed fails the log after the durable record {u,v,w} failed to
// apply, and returns the error that says what became of it.
func (p *Pipeline) applyFailed(u, v graph.Vertex, w graph.Dist, cause error) error {
	err := fmt.Errorf("compact: edge {%d,%d,%d} logged; applied on restart: %w", u, v, w, cause)
	p.log.Fail(err)
	return err
}

// Compact folds the WAL into a fresh checkpoint and rolls the serving
// index onto it. Small backlogs (<= DefaultFoldLimit) finalize the live
// repaired labels; larger ones rebuild from scratch with the build
// engine, off the serving path. Returns a zero-Mode Report when the
// WAL is empty, and wal.ErrFailed, before it builds or writes anything,
// when the WAL has failed: a log that can take no appends and cannot be
// truncated would have every compaction fold the same records again,
// and after a failed apply the live labels may hold half an insert.
// Safe to call concurrently; compactions serialize.
func (p *Pipeline) Compact() (Report, error) {
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	p.compactSince.Store(time.Now().UnixNano())
	defer p.compactSince.Store(0)

	var tr *trace.Tracer // non-nil when tracing is on
	var tr0 int64
	if p.opt.Tracer.Enabled() {
		tr = p.opt.Tracer
		tr0 = tr.Now()
	}

	// Phase 1 (writer mutex): fix the fold point n and, to fold, freeze
	// the live labels: exact for checkpoint+ups[:n], as inserts hold mu.
	// Every way the log fails is under mu too, so the check here is the
	// last word: no failed apply lands between it and the freeze.
	tBuild := time.Now()
	p.mu.Lock()
	if err := p.log.Err(); err != nil {
		p.mu.Unlock()
		return Report{}, fmt.Errorf("compact: not compacting: %w", err)
	}
	n := p.log.Len()
	if n == 0 {
		p.mu.Unlock()
		return Report{}, nil
	}
	ups := p.log.Updates()[:n]
	fold := n <= DefaultFoldLimit
	var labels func(v int) []label.Entry
	if fold {
		labels = p.cur.Freeze()
	}
	p.mu.Unlock()

	// Phase 2 (unlocked): fold the graph, and for a rebuild search it.
	// curGraph is only written under compactMu, which we hold.
	edges := p.curGraph.Edges()
	for _, up := range ups {
		edges = append(edges, graph.Edge{U: up.U, V: up.V, W: up.W})
	}
	g2 := graph.FromEdges(p.curGraph.NumVertices(), edges)
	mode := "fold"
	if !fold {
		mode = "rebuild"
		labels = build(g2, p.opt.Threads)
	}
	buildTime := time.Since(tBuild)

	// Phase 3 (unlocked): persist the pair, graph first, each write atomic
	// (see Open for why every crash interleaving is safe), the labels
	// finalizing into the index file; map the index.
	tSave := time.Now()
	ipath := filepath.Join(p.opt.Dir, IndexFile)
	if err := fileio.SaveGraph(p.opt.FS, filepath.Join(p.opt.Dir, GraphFile), g2); err != nil {
		return Report{}, fmt.Errorf("compact: saving checkpoint graph: %w", err)
	}
	if _, err := fileio.SaveLabels(p.opt.FS, ipath, g2.NumVertices(), labels); err != nil {
		return Report{}, fmt.Errorf("compact: saving checkpoint index: %w", err)
	}
	base, err := fileio.LoadIndex(ipath)
	if err != nil {
		return Report{}, fmt.Errorf("compact: mapping checkpoint index: %w", err)
	}
	saveTime := time.Since(tSave)
	next := dynamic.FromIndex(g2, base)

	// Phase 4 (writer mutex): replay what arrived mid-compaction, swap,
	// drop the folded prefix. A failed truncation leaves the swap: the
	// folded records still in the WAL replay idempotently on the new
	// checkpoint. If it failed after the WAL's rename, the log has failed
	// too (wal.ErrFailed): inserts answer it until a restart.
	tSwap := time.Now()
	p.mu.Lock()
	tail := p.log.Updates()[n:]
	for _, up := range tail {
		if err := next.InsertEdge(up.U, up.V, up.W); err != nil {
			p.mu.Unlock()
			return Report{}, fmt.Errorf("compact: replaying mid-compaction record (%d,%d,%d): %w", up.U, up.V, up.W, err)
		}
	}
	p.cur, p.curGraph = next, g2
	p.live.Store(next)
	truncErr := p.log.TruncateFront(n)
	p.mu.Unlock()
	swapTime := time.Since(tSwap)
	if truncErr != nil {
		p.opt.Logf("compact: WAL truncation failed, folded records stay in the log (a failed log takes no inserts until a restart): %v", truncErr)
	}

	gen := p.compactions.Add(1)
	p.lastCompact.Store(time.Now().UnixNano())
	p.lastSwap.Store(int64(swapTime))
	p.lastMode.Store(&mode)
	rep := Report{
		Mode: mode, Folded: n, Tail: len(tail),
		BuildTime: buildTime, SaveTime: saveTime, SwapTime: swapTime,
		Generation: gen,
	}
	if tr != nil {
		var m uint64
		if mode == "rebuild" {
			m = 1
		}
		tr.Buf(trace.TIDCompact).Span(tr.Intern("compact.run", "folded", "tail", "rebuild"),
			tr0, tr.Now(), uint64(n), uint64(len(tail)), m)
	}
	p.opt.Logf("compact: generation %d: %s of %d records (+%d tail) build=%s save=%s swap=%s",
		gen, mode, n, len(tail), buildTime.Round(time.Microsecond), saveTime.Round(time.Microsecond), swapTime.Round(time.Microsecond))
	if p.opt.OnPublish != nil {
		p.opt.OnPublish(rep)
	}
	return rep, nil
}

// Stats snapshots the pipeline's observable state.
func (p *Pipeline) Stats() Stats {
	since := p.compactSince.Load()
	s := Stats{
		WALRecords:              p.log.Len(),
		WALBytes:                p.log.Bytes(),
		Updates:                 p.updates.Load(),
		Compactions:             p.compactions.Load(),
		Compacting:              since != 0,
		CompactEvery:            p.opt.CompactEvery,
		CompactingSinceUnixNano: since,
		LastCompactUnixNano:     p.lastCompact.Load(),
		LastSwapNanos:           p.lastSwap.Load(),
		DeltaEntries:            p.live.Load().DeltaEntries(),
	}
	if m := p.lastMode.Load(); m != nil {
		s.LastCompactMode = *m
	}
	if err := p.log.Err(); err != nil {
		s.WALFailed = err.Error()
	}
	return s
}

// Generation returns the number of completed compactions.
func (p *Pipeline) Generation() uint64 { return p.compactions.Load() }

// IndexPath returns the checkpoint index artifact's path. The file
// exists from Open onward and is atomically replaced by compactions —
// the path a serving layer hands to its /reload machinery.
func (p *Pipeline) IndexPath() string { return filepath.Join(p.opt.Dir, IndexFile) }

// Close stops the background compactor and releases the WAL. It does
// not run a final compaction — the WAL is the durable state.
func (p *Pipeline) Close() error {
	select {
	case <-p.stopC:
	default:
		close(p.stopC)
	}
	<-p.doneC
	// Wait out a compaction in flight: it may be truncating the WAL.
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	return p.log.Close()
}

// build runs the engine over g into a label store and returns the store's
// list function, for fileio.SaveLabels to finalize into the index file.
func build(g *graph.Graph, threads int) func(v int) []label.Entry {
	store := label.NewStore(g.NumVertices())
	// Dynamic: static round-robin lets a worker outrun the early roots that would prune it.
	core.BuildInto(g, store, core.Options{Threads: threads, Policy: core.Dynamic})
	return store.List()
}
