package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parapll"
)

// Living-graph workload shape. Inserts are paced closed loop: the next
// one is sent at the later of the previous acknowledgement and the next
// slot, so the writer never queues behind itself and every run of a seed
// sends the same inserts in the same order. With -compact-every 120 a
// backlog of 120 logged inserts kicks a background compaction, so every
// stretch of 120 inserts — 1.2 s — holds at least one, and a reader
// window is exactly one such cycle (16 in a 20 s run, of which the
// reader may drop the last): fixed-length slices would fall into two
// populations, with and without a compaction inside, and the median
// over them would jump between the two.
const (
	insertSlot      = 10 * time.Millisecond
	compactEvery    = 120
	numCrashCycles  = 3
	insertsPerCrash = 100
	recheckPairs    = 500
	liveWarmQueries = 2000
	stallThreshold  = time.Millisecond // a read slower than this waited for the write lock
)

// liveStats is the part of GET /stats this workload reads.
type liveStats struct {
	AvgLabelSize float64 `json:"avg_label_size"`
	Wal          *struct {
		Compactions uint64 `json:"compactions_total"`
	} `json:"wal"`
}

func fetchStats(c *client, srv *server) (liveStats, error) {
	var st liveStats
	code, body, err := c.do("GET", srv.base+"/stats", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("/stats: HTTP %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	if st.Wal == nil {
		return st, fmt.Errorf("/stats has no wal section: server is not in living-graph mode")
	}
	return st, nil
}

func updateBody(e parapll.Edge) []byte {
	return []byte(fmt.Sprintf(`{"u":%d,"v":%d,"w":%d}`, e.U, e.V, e.W))
}

// read is one reader request's outcome, kept for the bounds check that
// can only be made once the final graph is known.
type read struct {
	pair  int
	reply []byte
}

// steady is what the concurrent reader/writer phase measured, one value
// per window, in seconds as measured except over (the window's read
// median over its floor's median). A window is one compaction cycle.
type steady struct {
	p50, pp, tail, floor, over windows // reader
	insert                     windows // writer: durable-ack median per cycle
	tailP                      float64
	reads                      []read
	stalled                    time.Duration // reader wall time inside requests slower than stallThreshold
	wall                       time.Duration
}

// runSteady drives one reader connection issuing /query back to back
// and one writer connection posting the inserts at the paced rate, until
// the writer has had every insert acknowledged. With a recorder, every
// request is a client span on the reader's or the writer's lane.
func runSteady(srv *server, rc, wc *client, o *oracle, pool []pair, inserts []parapll.Edge, rec *recorder) (*steady, error) {
	st := &steady{}
	st.insert.samples = compactEvery
	var acked atomic.Int64
	root := -1
	if rec != nil {
		root = rec.begin("client.living_steady", -1, rec.newOp(), 0)
		defer rec.end(root)
	}
	// traced wraps one request in a span when tracing is on.
	traced := func(name string, lane int, f func() error) error {
		if rec == nil {
			return f()
		}
		id := rec.begin(name, root, rec.newOp(), lane)
		defer rec.end(id)
		return f()
	}
	urls := make([]string, len(pool))
	for i, p := range pool {
		urls[i] = queryURL(srv.base, o, p)
	}
	bodies := make([][]byte, len(inserts))
	for i, e := range inserts {
		bodies[i] = updateBody(e)
	}

	var wg sync.WaitGroup
	var readErr, writeErr error
	stop := make(chan struct{})
	start := time.Now()

	wg.Add(1)
	go func() { // reader: one window per compaction cycle of the writer
		defer wg.Done()
		var lat, fl []float64
		cycle := int64(0)
		flush := func() {
			if st.tailP == 0 {
				st.tailP = tailPercentile(len(lat))
				for _, w := range []*windows{&st.p50, &st.pp, &st.tail, &st.floor, &st.over} {
					w.samples = len(lat)
				}
			}
			p50, pp, tail := latencyWindow(lat, st.tailP)
			f, _, _ := latencyWindow(fl, 0.5)
			st.p50.add(p50)
			st.pp.add(pp)
			st.tail.add(tail)
			st.floor.add(f)
			st.over.add(p50 / f)
			lat, fl = lat[:0], fl[:0]
		}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return // the partial last cycle is dropped
			default:
			}
			k := i % len(pool)
			var reply []byte
			t0 := time.Now()
			err := traced("client.query", 1, func() (err error) { reply, err = rc.fetch("GET", urls[k], nil); return })
			d := time.Since(t0)
			if err != nil {
				readErr = err
				return
			}
			if d > stallThreshold {
				st.stalled += d
			}
			lat = append(lat, d.Seconds())
			st.reads = append(st.reads, read{k, reply})
			if (i+1)%floorBlock == 0 {
				for j := 0; j < floorBlock; j++ {
					t0 := time.Now()
					if err := rc.floor(srv.base); err != nil {
						readErr = err
						return
					}
					fl = append(fl, time.Since(t0).Seconds())
				}
			}
			if c := acked.Load() / compactEvery; c > cycle && len(fl) > 0 {
				flush()
				cycle = c
			}
		}
	}()

	url := srv.base + "/update"
	lat := make([]float64, 0, compactEvery)
	for i, body := range bodies {
		t0 := time.Now()
		if err := traced("client.update", 2, func() error { return wc.update(url, body) }); err != nil {
			writeErr = fmt.Errorf("insert %d: %w", i, err)
			break
		}
		lat = append(lat, time.Since(t0).Seconds())
		acked.Add(1)
		if len(lat) == compactEvery {
			p50, _, _ := latencyWindow(lat, 0.5)
			st.insert.add(p50)
			lat = lat[:0]
		}
		if wait := time.Until(start.Add(time.Duration(i+1) * insertSlot)); wait > 0 {
			time.Sleep(wait) // between timed operations, never inside one
		}
	}
	close(stop)
	wg.Wait()
	st.wall = time.Since(start)
	if writeErr != nil {
		return nil, writeErr
	}
	if readErr != nil {
		return nil, readErr
	}
	return st, nil
}

// checkReads checks every read of the steady phase. Inserts only
// shorten distances, so a read that raced the writer is correct iff it
// lies between the pair's final and its initial distance.
func (st *steady) checkReads(res *result, pool []pair, initial, final *oracle) error {
	for _, r := range st.reads {
		got, err := decodeDist(r.reply)
		if err != nil {
			return err
		}
		p := pool[r.pair]
		res.check(within(final.want(p), got, initial.want(p)))
	}
	return nil
}

// report adds the steady phase's numbers beside the end-to-end ones (or,
// traced, as per-layer metrics: add is res.also or res.add).
func (st *steady) report(add func(name, unit string, value float64, detail string)) {
	w := func(name, unit string, w *windows, scale float64) {
		add(name, unit, w.median()*scale, w.describe(scale))
	}
	w("living.point_p50_us", "us", &st.p50, 1e6)
	w("living.point_p99_us", "us", &st.pp, 1e6)
	w("living.point_tail_us", "us", &st.tail, 1e6)
	w("living.query_over_floor", "ratio", &st.over, 1)
	w("insert_p50_ms", "ms", &st.insert, 1e3)
	add("compact.reader_stall_frac", "ratio", st.stalled.Seconds()/st.wall.Seconds(),
		fmt.Sprintf("share of %.1f s of reader wall time inside requests slower than %s", st.wall.Seconds(), stallThreshold))
}

// within reports whether final <= got <= initial; -1 on the wire is
// infinity.
func within(final, got, initial int64) bool {
	inf := func(d int64) float64 {
		if d < 0 {
			return 1e300
		}
		return float64(d)
	}
	return inf(final) <= inf(got) && inf(got) <= inf(initial)
}

// recheck compares count seeded pairs with Dijkstra on the graph that
// holds every acknowledged insert. The server must be quiescent.
func recheck(res *result, c *client, srv *server, o *oracle, count int, rng *rand.Rand) error {
	return checkPairs(res, c, srv, o, uniformPairs(o, count, rng))
}

// crashCycles runs the durability check, cycles times: per cycle, insertsPerCrash more
// acknowledged inserts (continuing stream after the first done of
// them), kill -9, restart on the same directory, and then every answer
// must reflect every acknowledged insert. Process-crash durability
// only: the OS cache survives a killed process. It returns the last
// server (running), the kill-to-first-correct-answer times and the
// largest peak RSS of the servers it killed.
func crashCycles(cfg *config, res *result, rc, wc *client, srv *server, g *parapll.Graph, o *oracle,
	stream []parapll.Edge, done, cycles int, args []string, rng *rand.Rand) (*server, windows, float64, error) {
	var recover windows
	rss := 0.0
	for cycle := 0; cycle < cycles; cycle++ {
		for i, e := range stream[done : done+insertsPerCrash] {
			if err := wc.update(srv.base+"/update", updateBody(e)); err != nil {
				srv.stop()
				return nil, recover, 0, fmt.Errorf("crash cycle %d insert %d: %w", cycle, i, err)
			}
		}
		done += insertsPerCrash
		if u := srv.stop(); u.rssMB > rss {
			rss = u.rssMB
		}
		now := o.on(withEdges(g, stream[:done]))
		t0 := time.Now()
		var err error
		srv, err = coldStart(cfg, res, rc, now, uniformPairs(now, 1, rng)[0], args...)
		if err != nil {
			return nil, recover, 0, fmt.Errorf("restart after kill -9 (cycle %d): %w", cycle, err)
		}
		recover.add(time.Since(t0).Seconds())
		if err := recheck(res, rc, srv, now, recheckPairs, rng); err != nil {
			srv.stop()
			return nil, recover, 0, err
		}
	}
	return srv, recover, rss, nil
}

// runLivingMixed is workload `living_mixed`: reads beside durable
// writes and background compaction, then crash recovery. compact, wal
// and dynamic hold the index write lock across fsync and the resumed
// searches, so the reader's tail is the lock-hold time.
func runLivingMixed(cfg *config) (*result, error) {
	sz := cfg.sizes()
	res := &result{}
	rng := rand.New(rand.NewSource(cfg.seed))

	t0 := time.Now()
	graphPath, err := genDataset(cfg, p2pDataset, sz.liveScale, filepath.Join(cfg.work, "live"))
	if err != nil {
		return nil, err
	}
	g, err := parapll.LoadGraph(graphPath)
	if err != nil {
		return nil, err
	}
	sources := sz.sources / 4 // rows are recomputed after every phase
	initial := newOracle(g, sources, rng)
	steadyInserts := int(cfg.seconds / insertSlot.Seconds())
	if cfg.smoke {
		steadyInserts = 3 * compactEvery
	}
	steadyInserts -= steadyInserts % compactEvery
	stream, err := insertStream(g, steadyInserts+numCrashCycles*insertsPerCrash, rng)
	if err != nil {
		return nil, err
	}
	prep := time.Since(t0)

	rc, wc := newClient(), newClient()
	defer rc.close()
	defer wc.close()
	serverArgs := func(walDir string) []string {
		return []string{"-graph", graphPath, "-wal", walDir, "-compact-every", fmt.Sprint(compactEvery)}
	}

	// Set-up: boot on a fresh WAL directory (which builds and
	// checkpoints the index), warm with checked queries, stop.
	warm := liveWarmQueries
	if cfg.smoke {
		warm = 200
	}
	// Every boot builds the index with two threads, whose interleaving
	// decides how many redundant labels Proposition 1's slack leaves, so
	// LN and the checkpoint's size are medians over the boots too.
	var setup, ln, sizeMB windows
	var srv *server
	var walDir string
	var boot liveStats
	for i := 0; i < sz.setups; i++ {
		walDir = filepath.Join(cfg.work, fmt.Sprintf("wal%d", i))
		pairs := uniformPairs(initial, warm, rng)
		s0 := time.Now()
		srv, err = coldStart(cfg, res, rc, initial, pairs[0], serverArgs(walDir)...)
		if err != nil {
			return nil, err
		}
		if err := checkPairs(res, rc, srv, initial, pairs[1:]); err != nil {
			return nil, err
		}
		setup.add(time.Since(s0).Seconds())
		if boot, err = fetchStats(rc, srv); err != nil {
			return nil, err
		}
		ckpt, err := os.Stat(filepath.Join(walDir, "index.midx"))
		if err != nil {
			return nil, fmt.Errorf("boot checkpoint: %w", err)
		}
		ln.add(boot.AvgLabelSize)
		sizeMB.add(float64(ckpt.Size()) / (1 << 20))
		if i < sz.setups-1 {
			srv.stop()
		}
	}

	// Steady state: reads beside paced durable inserts.
	pool := uniformPairs(initial, 20000, rng)
	st, err := runSteady(srv, rc, wc, initial, pool, stream[:steadyInserts], nil)
	if err != nil {
		return nil, err
	}
	after, err := fetchStats(rc, srv)
	if err != nil {
		return nil, err
	}
	final := initial.on(withEdges(g, stream[:steadyInserts]))
	if err := st.checkReads(res, pool, initial, final); err != nil {
		return nil, err
	}
	if err := recheck(res, rc, srv, final, recheckPairs, rng); err != nil {
		return nil, err
	}

	srv, recover, rss, err := crashCycles(cfg, res, rc, wc, srv, g, final, stream, steadyInserts, numCrashCycles, serverArgs(walDir), rng)
	if err != nil {
		return nil, err
	}
	if u := srv.stop(); u.rssMB > rss {
		rss = u.rssMB
	}

	res.notef("graph: %s scale %g n=%d m=%d; prep_s=%.2f; -compact-every %d, insert slot %s; steady %.1fs: %d reads, %d inserts, %d compactions finished (%d -> %d); then %d kill -9 cycles",
		p2pDataset, sz.liveScale, g.NumVertices(), g.NumEdges(), prep.Seconds(), compactEvery, insertSlot,
		st.wall.Seconds(), len(st.reads), steadyInserts, after.Wal.Compactions-boot.Wal.Compactions, boot.Wal.Compactions, after.Wal.Compactions, numCrashCycles)
	res.notef("req = GET /query beside paced POST /update, one window per %d inserts (a compaction cycle), OPTIONS * after every %d reads; p%g is the highest quantile such a window supports",
		compactEvery, floorBlock, st.tailP*100)
	res.addWindows("setup_s", "s", &setup, 1)
	res.add("rss_mb", "MB", rss, "largest server peak RSS of the steady and crash-cycle instances (VmHWM)")
	res.addWindows("ln", "count", &ln, 1)
	res.addWindows("index_mb", "MB", &sizeMB, 1)
	res.addWindows("req_p50_us", "us", &st.over, floorNominal*1e6)
	res.alsoWindows("server.http_floor_us", "us", &st.floor, 1e6)
	st.report(res.also)
	res.alsoWindows("recover_s", "s", &recover, 1)
	return res, nil
}
