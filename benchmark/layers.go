package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"parapll"
	"parapll/internal/compact"
	"parapll/internal/core"
	"parapll/internal/dynamic"
	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/order"
	"parapll/internal/pll"
	"parapll/internal/qcache"
	httpserver "parapll/internal/server"
	"parapll/internal/wal"
)

// The traced run. End-to-end numbers come from untraced runs; this one
// times calls into each layer's public functions from the outside,
// keeps a span per call, and prints every per-layer metric. The
// contract has every workload's traced run print every per-layer
// metric, so each traced run walks all four sections; the section that
// belongs to -workload runs three times as many windows.
//
// In-process numbers here (label.query_ns, server.handler_us, …) are
// the layer's cost without the process boundary; the real-binary probes
// (server.http_floor_us, compact.reader_stall_frac, …) are taken from
// the same binaries the end-to-end runs drive. The timings BENCHMARK.json
// does not gate (index_s, point_p99_us, batch_p50_ms, insert_p50_ms, … —
// see README) are listed here too, under the issue's names, measured by
// the same functions the untraced workloads use.

const kernelWindow = 20000 // in-process queries per window: ~60 ms at 3 µs

// ledger carries the traced run's shared state.
type ledger struct {
	cfg *config
	res *result
	rec *recorder
	rng *rand.Rand
}

// sectionOf names the section of the traced run that belongs to each
// workload.
var sectionOf = map[string]string{"build": "build", "serve_point": "point", "serve_batch": "batch", "living_mixed": "living"}

// depth is the window-count multiplier of a section: 1, except for the
// section of the workload being traced, which scales with -seconds.
func (l *ledger) depth(section string) int {
	if l.cfg.smoke || sectionOf[l.cfg.workload] != section {
		return 1
	}
	return min(max(int(l.cfg.seconds/6), 1), 4)
}

// span times f as a span named name under parent (-1 for a new
// operation's root) and returns the span's id and duration.
func (l *ledger) span(name string, parent int, f func()) (int, time.Duration) {
	var op int
	if parent < 0 {
		op = l.rec.newOp()
	} else {
		op = l.rec.opOf(parent)
	}
	id := l.rec.begin(name, parent, op, 0)
	f()
	return id, l.rec.end(id)
}

// repeat times f count times as root spans and returns the median, in
// seconds.
func (l *ledger) repeat(name string, count int, f func()) float64 {
	var w windows
	for i := 0; i < count; i++ {
		_, d := l.span(name, -1, f)
		w.add(d.Seconds())
	}
	return w.median()
}

func toVertexPairs(o *oracle, ps []pair) [][2]graph.Vertex {
	out := make([][2]graph.Vertex, len(ps))
	for i, p := range ps {
		out[i] = [2]graph.Vertex{o.s(p), p.t}
	}
	return out
}

func runTraced(cfg *config) (*result, error) {
	l := &ledger{cfg: cfg, res: &result{}, rec: newRecorder(), rng: rand.New(rand.NewSource(cfg.seed))}
	sz := cfg.sizes()

	p2pPath, err := genDataset(cfg, p2pDataset, sz.p2pScale, filepath.Join(cfg.work, "p2p"))
	if err != nil {
		return nil, err
	}
	roadPath, err := genDataset(cfg, roadDataset, sz.roadScale, filepath.Join(cfg.work, "road"))
	if err != nil {
		return nil, err
	}
	livePath, err := genDataset(cfg, p2pDataset, sz.liveScale, filepath.Join(cfg.work, "live"))
	if err != nil {
		return nil, err
	}

	st, err := l.buildSection(p2pPath, roadPath)
	if err != nil {
		return nil, err
	}
	if err := l.querySection(st); err != nil {
		return nil, err
	}
	if err := l.staticServerSection(st); err != nil {
		return nil, err
	}
	liveGraph, err := l.updateSection(livePath)
	if err != nil {
		return nil, err
	}
	if err := l.livingServerSection(livePath, liveGraph); err != nil {
		return nil, err
	}

	// Trace out, validated by the repository's own checker.
	tracePath := filepath.Join(filepath.Dir(cfg.work), "trace-"+cfg.workload+".json")
	if err := writeChrome(tracePath, l.rec.spans); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	checked, err := runTool(cfg.tool("parapll-trace"), "check", tracePath)
	if err != nil {
		return nil, fmt.Errorf("parapll-trace check rejected the benchmark's trace: %w", err)
	}
	l.res.notef("trace: %d spans -> %s; %s", len(l.rec.spans), tracePath, strings.TrimSpace(checked.stdout))
	self := selfTimes(l.rec.spans)
	layers := make([]string, 0, len(self))
	for name := range self {
		layers = append(layers, name)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, name := range layers {
		l.res.notef("self time  %-10s %10.1f ms", name, self[name].Seconds()*1e3)
	}
	return l.res, nil
}

// staticState is what the build section hands to the serving sections.
type staticState struct {
	g         *graph.Graph
	o         *oracle
	idx       *label.Index // opened from pidmPath, as the server opens it
	pidmPath  string
	batchNs   float64 // in-process QueryBatch ns per pair
	handlerUs float64 // in-process /query ServeHTTP, uniform pairs
	healthzUs float64 // in-process /healthz ServeHTTP
}

// buildOnce runs one parallel build under a root span with the engine's
// search and the finalize step as children, and returns the index with
// the two durations and the work accounting.
func (l *ledger) buildOnce(g *graph.Graph, ord []graph.Vertex, eng core.Engine, threads int) (*label.Index, time.Duration, time.Duration, *core.BuildStats) {
	var idx *label.Index
	var stats *core.BuildStats
	var search, finalize time.Duration
	root := l.rec.begin("bench.build", -1, l.rec.newOp(), 0)
	store := label.NewStore(g.NumVertices())
	_, search = l.span("core.build_into", root, func() {
		stats = core.BuildInto(g, store, core.Options{Threads: threads, Policy: core.Dynamic, Order: ord, Engine: eng})
	})
	_, finalize = l.span("label.finalize", root, func() { idx = label.NewIndex(store) })
	l.rec.end(root)
	return idx, search, finalize, stats
}

// buildSection measures fileio, order, core, pll and label's build-side
// functions on the p2p graph (and the engines on the road graph too).
func (l *ledger) buildSection(p2pPath, roadPath string) (*staticState, error) {
	reps := 3 * l.depth("build")
	if l.cfg.smoke {
		reps = 1
	}
	var g, road *graph.Graph
	var err error
	loadS := l.repeat("fileio.load_graph", 2*reps+1, func() { g, err = fileio.LoadGraph(p2pPath) })
	if err != nil {
		return nil, err
	}
	if road, err = fileio.LoadGraph(roadPath); err != nil {
		return nil, err
	}
	l.res.add("fileio.load_graph_ms", "ms", loadS*1e3, fmt.Sprintf("fileio.LoadGraph, p2p n=%d m=%d, median of %d", g.NumVertices(), g.NumEdges(), 2*reps+1))

	var degree, psi []graph.Vertex
	l.res.add("order.degree_ms", "ms", l.repeat("order.degree", 2*reps+1, func() { degree = order.Degree(g) })*1e3, "order.Degree")
	l.res.add("order.psi_ms", "ms", l.repeat("order.psi_sample", reps, func() { psi = order.PsiSample(g, 8, uint64(l.cfg.seed)) })*1e3, "order.PsiSample, 8 samples")

	// The headline build: per-root engine, two threads, degree order.
	var search, finalize windows
	var idx *label.Index
	var stats *core.BuildStats
	for i := 0; i < l.depth("build"); i++ {
		var s, f time.Duration
		idx, s, f, stats = l.buildOnce(g, degree, core.PerRoot{}, 2)
		search.add(s.Seconds())
		finalize.add(f.Seconds())
	}
	l.res.add("core.search_ms", "ms", search.median()*1e3, fmt.Sprintf("core.BuildInto, PerRoot, 2 threads, degree order; %d builds", len(search.vals)))
	l.res.add("core.work_units", "count", float64(stats.TotalWork()), "heap pops + relaxations + label scans, all workers")
	l.res.add("core.projected_speedup", "ratio", stats.ProjectedSpeedup(), "total work / busiest worker's work")
	l.res.add("label.finalize_ms", "ms", finalize.median()*1e3, "label.NewIndex(store)")
	l.res.add("label.entries", "count", float64(idx.NumEntries()), fmt.Sprintf("LN=%.1f", idx.AvgLabelSize()))

	var serial *label.Index
	_, serialD := l.span("pll.build", -1, func() { serial = pll.Build(g, pll.Options{Order: degree}) })
	l.res.add("pll.serial_ms", "ms", serialD.Seconds()*1e3, "pll.Build, the serial weighted PLL baseline")
	l.res.add("core.speedup_2t", "ratio", serialD.Seconds()/search.median(), "pll.serial_ms / core.search_ms")
	l.res.add("label.redundant_frac", "ratio", float64(idx.NumEntries()-serial.NumEntries())/float64(serial.NumEntries()),
		"(parallel entries - serial entries) / serial entries: the redundancy Proposition 1 permits")

	batched, err := core.EngineByName("batched", 0)
	if err != nil {
		return nil, err
	}
	_, batchedS, _, _ := l.buildOnce(g, degree, batched, 2)
	l.res.add("core.batched_over_perroot.p2p", "ratio", search.median()/batchedS.Seconds(), "per-root search time / batched search time, p2p (above 1: batched is faster)")
	roadOrd := order.Degree(road)
	_, roadPer, _, _ := l.buildOnce(road, roadOrd, core.PerRoot{}, 2)
	_, roadBat, _, _ := l.buildOnce(road, roadOrd, batched, 2)
	l.res.add("core.batched_over_perroot.road", "ratio", roadPer.Seconds()/roadBat.Seconds(), "the same on the road graph")
	psiIdx, _, _, _ := l.buildOnce(g, psi, core.PerRoot{}, 2)
	l.res.add("order.ln_psi_over_degree", "ratio", psiIdx.AvgLabelSize()/idx.AvgLabelSize(), "LN under psi order / LN under degree order")

	pidm := filepath.Join(l.cfg.work, "layers.midx")
	saveS := l.repeat("fileio.save_pidm", reps, func() { err = fileio.SaveIndexAs(pidm, idx, label.FormatMmap) })
	if err != nil {
		return nil, err
	}
	l.res.add("fileio.save_pidm_ms", "ms", saveS*1e3, "fileio.SaveIndexAs(..., mmap)")
	var opened *label.Index
	openS := l.repeat("label.open", 5*reps, func() {
		if opened != nil {
			opened.Close()
		}
		opened, err = label.Open(pidm)
	})
	if err != nil {
		return nil, err
	}
	l.res.add("label.open_us", "us", openS*1e6, "label.Open of the PIDM (mmap)")
	verifyS := l.repeat("label.verify", reps, func() { err = opened.Verify() })
	if err != nil {
		return nil, err
	}
	l.res.add("label.verify_ms", "ms", verifyS*1e3, "Index.Verify")

	o := newOracle(g, l.cfg.sizes().sources, l.rng)
	for _, p := range uniformPairs(o, 2000, l.rng) {
		l.res.check(o.check(p, wireDist(opened.Query(o.s(p), p.t))))
		l.res.check(o.check(p, wireDist(psiIdx.Query(o.s(p), p.t))))
		l.res.check(o.check(p, wireDist(serial.Query(o.s(p), p.t))))
	}

	// The tool itself, as workload `build` runs it: what the layers above
	// add up to behind a process boundary.
	var wall, roadWall, cpu windows
	for i := 0; i < 1+2*(l.depth("build")-1); i++ {
		var b, rb built
		_, _ = l.span("tool.parapll_index", -1, func() { b, err = buildIndex(l.cfg, p2pPath, filepath.Join(l.cfg.work, "tool.midx")) })
		if err != nil {
			return nil, err
		}
		_, _ = l.span("tool.parapll_index", -1, func() { rb, err = buildIndex(l.cfg, roadPath, filepath.Join(l.cfg.work, "tool-road.midx")) })
		if err != nil {
			return nil, err
		}
		wall.add(b.wall.Seconds())
		cpu.add(b.cpu.Seconds())
		roadWall.add(rb.wall.Seconds())
	}
	l.res.addWindows("index_s", "s", &wall, 1)
	l.res.addWindows("index_road_s", "s", &roadWall, 1)
	l.res.addWindows("index_cpu_s", "s", &cpu, 1)
	return &staticState{g: g, o: o, idx: opened, pidmPath: pidm}, nil
}

// kernelWindows times f over n windows of kernelWindow calls each and
// returns the median of the per-window mean, in nanoseconds per call.
func (l *ledger) kernelWindows(name string, n int, prepare func(), f func(i int)) *windows {
	w := &windows{samples: kernelWindow}
	for k := 0; k < n; k++ {
		prepare()
		_, d := l.span(name, -1, func() {
			for i := 0; i < kernelWindow; i++ {
				f(i)
			}
		})
		w.add(float64(d.Nanoseconds()) / kernelWindow)
	}
	return w
}

// querySection measures the query-side layers in process on the run's
// own pairs: the label merge kernel, QueryBatch, the distance cache and
// the HTTP handler without a socket.
func (l *ledger) querySection(st *staticState) error {
	idx, o := st.idx, st.o
	nPoint, nBatch := 15*l.depth("point"), 15*l.depth("batch")
	if l.cfg.smoke {
		nPoint, nBatch = 3, 3
	}

	var pairs []pair
	got := make([]graph.Dist, kernelWindow)
	draw := func() { pairs = uniformPairs(o, kernelWindow, l.rng) }
	verify := func() {
		for i, p := range pairs {
			l.res.check(o.check(p, wireDist(got[i])))
		}
	}
	q := l.kernelWindows("label.query", nPoint, func() { draw() }, func(i int) { got[i] = idx.Query(o.s(pairs[i]), pairs[i].t) })
	verify()
	l.res.addWindows("label.query_ns", "ns", q, 1)

	// QueryBatch in the server's shape: 2000 pairs, two goroutines.
	bw := &windows{samples: 20 * bigBatchPairs}
	for k := 0; k < nBatch; k++ {
		reqs := make([][][2]graph.Vertex, 20)
		ps := uniformPairs(o, 20*bigBatchPairs, l.rng)
		for i := range reqs {
			reqs[i] = toVertexPairs(o, ps[i*bigBatchPairs:(i+1)*bigBatchPairs])
		}
		outs := make([][]graph.Dist, len(reqs))
		_, d := l.span("label.query_batch", -1, func() {
			for i, r := range reqs {
				outs[i] = idx.QueryBatch(r, 2)
			}
		})
		bw.add(float64(d.Nanoseconds()) / float64(len(ps)))
		for i, p := range ps {
			l.res.check(o.check(p, wireDist(outs[i/bigBatchPairs][i%bigBatchPairs])))
		}
	}
	l.res.addWindows("label.batch_ns_per_pair", "ns", bw, 1)
	st.batchNs = bw.median()

	// Counts, exact for a seed.
	probed, gallops := 0, 0
	explainPairs := uniformPairs(o, 2000, l.rng)
	for _, p := range explainPairs {
		ex := idx.QueryExplain(o.s(p), p.t)
		probed += ex.HubsProbed
		if ex.Algo == "gallop" {
			gallops++
		}
		l.res.check(o.check(p, wireDist(ex.Dist)))
	}
	l.res.add("label.hubs_probed_per_query", "count", float64(probed)/float64(len(explainPairs)), "QueryExplain over 2000 pairs")
	l.res.add("label.gallop_frac", "ratio", float64(gallops)/float64(len(explainPairs)), "share of those queries the galloping merge served")

	// The cache the server fronts the index with, both ways round.
	cache := qcache.New(65536)
	cached := qcache.Wrap(idx, cache, 1, qcache.Options{Symmetric: true})
	s0 := cache.Stats()
	miss := l.kernelWindows("qcache.query_uniform", nPoint, func() { draw() }, func(i int) { got[i] = cached.Query(o.s(pairs[i]), pairs[i].t) })
	verify()
	s1 := cache.Stats()
	hot := newHotSet(o, hotSetPairs, l.rng)
	for _, p := range hot.pairs {
		cached.Query(o.s(p), p.t)
	}
	s2 := cache.Stats()
	hit := l.kernelWindows("qcache.query_hot", nPoint, func() { pairs = hot.draw(kernelWindow) }, func(i int) { got[i] = cached.Query(o.s(pairs[i]), pairs[i].t) })
	verify()
	s3 := cache.Stats()
	rate := func(a, b qcache.Stats) float64 {
		return float64(b.Hits-a.Hits) / float64(b.Hits-a.Hits+b.Misses-a.Misses)
	}
	l.res.addWindows("qcache.hit_ns", "ns", hit, 1)
	l.res.addWindows("qcache.miss_ns", "ns", miss, 1)
	l.res.add("qcache.hit_rate.hot", "ratio", rate(s2, s3), "Cache.Stats over the hot windows")
	l.res.add("qcache.hit_rate.uniform", "ratio", rate(s0, s1), "Cache.Stats over the uniform windows")

	// The handler without a socket: mux, middleware, parse, cache,
	// kernel, JSON — configured like the binary (cache on).
	srv := httpserver.NewPending(nil)
	srv.SetCacheEntries(65536)
	srv.Publish(idx, nil, "")
	serve := func(name string, n int, path func(p pair) string, verify bool) *windows {
		w := &windows{samples: pointWindow}
		for k := 0; k < n; k++ {
			ps := uniformPairs(o, pointWindow, l.rng)
			reqs := make([]*http.Request, pointWindow)
			outs := make([]*httptest.ResponseRecorder, pointWindow)
			for i, p := range ps {
				reqs[i] = httptest.NewRequest("GET", path(p), nil)
				outs[i] = httptest.NewRecorder()
			}
			_, d := l.span(name, -1, func() {
				for i, r := range reqs {
					srv.ServeHTTP(outs[i], r)
				}
			})
			w.add(d.Seconds() * 1e6 / pointWindow)
			for i, p := range ps {
				var r struct {
					Dist int64 `json:"dist"`
				}
				ok := outs[i].Code == http.StatusOK
				if ok && verify {
					ok = json.Unmarshal(outs[i].Body.Bytes(), &r) == nil && o.check(p, r.Dist)
				}
				l.res.check(ok)
			}
		}
		return w
	}
	hw := serve("server.handle_query", nPoint, func(p pair) string { return queryURL("", o, p) }, true)
	l.res.addWindows("server.handler_us", "us", hw, 1)
	st.handlerUs = hw.median()
	st.healthzUs = serve("server.handle_healthz", nPoint, func(pair) string { return "/healthz" }, false).median()
	return nil
}

// staticServerSection probes the real parapll-server on the PIDM the
// build section saved: the HTTP floor, a point query's round trip and
// what of it the layers explain, a big batch's overhead over the
// kernel, CPU per request, two-connection throughput, and what the
// benchmark's own span recording costs.
func (l *ledger) staticServerSection(st *staticState) error {
	o := st.o
	n := 4 * l.depth("point")
	c := newClient()
	defer c.close()
	srv, err := startServer(l.cfg.tool("parapll-server"), filepath.Join(l.cfg.work, "server.log"), c, "-index", st.pidmPath)
	if err != nil {
		return err
	}
	defer srv.kill()

	// spanned wraps a runPhase window generator so that every request it
	// issues is a client span; the span's cost lands on the timed path.
	spanned := func(name string, next func() (window, error)) func() (window, error) {
		return func() (window, error) {
			win, err := next()
			send := win.send
			win.send = func(i int) error {
				id := l.rec.begin(name, -1, l.rec.newOp(), 0)
				defer l.rec.end(id)
				return send(i)
			}
			return win, err
		}
	}
	floor := func() error { return c.floor(srv.base) }
	tracedFloor := func() error {
		id := l.rec.begin("client.floor", -1, l.rec.newOp(), 0)
		defer l.rec.end(id)
		return floor()
	}

	// Point queries with OPTIONS * interleaved block by block, exactly as
	// the end-to-end run does it (runPhase), so that a window's latency
	// and its floor share one machine state. Windows alternate traced and
	// untraced: the difference is the span recorder's cost on the
	// client's timed path, the only place tracing touches an end-to-end
	// metric (spans are recorded in the benchmark, never in the program).
	query := pointWindowOf(c, srv, o, l.res, func() []pair { return uniformPairs(o, pointWindow, l.rng) })
	cpu0, err := srv.cpuNow()
	if err != nil {
		return err
	}
	var floors, p50s, pps, tails, on, off, unattributed windows
	for _, w := range []*windows{&floors, &p50s, &pps, &tails, &on, &off} {
		w.samples = pointWindow
	}
	for k := 0; k < 2*n; k++ {
		traced := k%2 == 0
		next, fl := query, floor
		if traced {
			next, fl = spanned("client.query", query), tracedFloor
		}
		ph, err := runPhase(pointWindow, 1, 0, fl, next)
		if err != nil {
			return err
		}
		p50, f := ph.p50.vals[0], ph.floor.vals[0]
		floors.add(f)
		if traced {
			on.add(p50 / f)
			continue
		}
		off.add(p50 / f)
		p50s.add(p50)
		pps.add(ph.pp.vals[0])
		tails.add(ph.tail.vals[0])
		// In process, /healthz is the handler path with nothing to do, so
		// handler minus it is what a query adds; over the wire the floor
		// already holds none of the handler, so all of it is subtracted.
		unattributed.add((p50 - f - st.handlerUs/1e6) / p50)
	}
	cpu1, err := srv.cpuNow()
	if err != nil {
		return err
	}
	l.res.addWindows("server.http_floor_us", "us", &floors, 1e6)
	l.res.addWindows("point_p50_us", "us", &p50s, 1e6)
	l.res.addWindows("point_p99_us", "us", &pps, 1e6)
	l.res.addWindows("point_tail_us", "us", &tails, 1e6)
	l.res.addWindows("server.query_over_floor", "ratio", &off, 1)
	l.res.add("server.cpu_us_per_req", "us", float64((cpu1-cpu0).Microseconds())/float64(2*2*n*pointWindow), "/proc utime+stime over the point windows, /query and OPTIONS * alike")
	overhead := (on.median() - off.median()) / off.median()
	l.res.add("trace.overhead_frac", "ratio", overhead,
		fmt.Sprintf("point p50 over its floor: traced %.3f vs untraced %.3f, %d alternating windows each", on.median(), off.median(), n))
	l.res.notef("tracing overhead on the end-to-end metrics: req_p50_us %+.2f %% (%.2f us traced, %.2f us untraced; two span appends per request on the client's timed path, the same for every req); setup_s, rss_mb, ln, index_mb 0 by construction (no span is recorded inside the program or around a set-up)",
		100*overhead, on.median()*floorNominal*1e6, off.median()*floorNominal*1e6)
	l.res.add("point.unattributed_frac", "ratio", unattributed.median(),
		fmt.Sprintf("(point p50 %.1f us - its window's OPTIONS * floor %.1f us - in-process handler %.1f us) / p50; of the handler, %.1f us is mux and middleware alone (/healthz)",
			p50s.median()*1e6, floors.median()*1e6, st.handlerUs, st.healthzUs))

	// The program's empty request over the standard library's: what mux
	// and middleware cost behind the socket.
	hz, err := runPhase(pointWindow, 2*l.depth("point"), 0, floor, func() (window, error) {
		return window{
			send:   func(int) error { _, err := c.fetch("GET", srv.base+"/healthz", nil); return err },
			verify: func() error { return nil },
		}, nil
	})
	if err != nil {
		return err
	}
	l.res.addWindows("server.healthz_over_floor", "ratio", &hz.over, 1)

	// The cached path.
	hot := newHotSet(o, hotSetPairs, l.rng)
	if err := checkPairs(l.res, c, srv, o, hot.pairs); err != nil {
		return err
	}
	hotPhase, err := runPhase(pointWindow, 2*l.depth("point"), 0, floor,
		spanned("client.query_hot", pointWindowOf(c, srv, o, l.res, func() []pair { return hot.draw(pointWindow) })))
	if err != nil {
		return err
	}
	l.res.addWindows("point_hot_p50_us", "us", &hotPhase.p50, 1e6)
	l.res.addWindows("server.hot_over_floor", "ratio", &hotPhase.over, 1)

	// Big batches against the kernel's own time for as many pairs, then
	// small ones.
	big, err := runPhase(bigBatchWindow, 2*l.depth("batch"), 0, nil,
		spanned("client.batch", batchWindowOf(c, srv, o, l.res, bigBatchWindow, bigBatchPairs, l.rng)))
	if err != nil {
		return err
	}
	kernelUs := st.batchNs * bigBatchPairs / 1e3
	l.res.addWindows("batch_p50_ms", "ms", &big.p50, 1e3)
	l.res.addWindows("batch_tail_ms", "ms", &big.tail, 1e3)
	l.res.add("batch_kpairs_s", "kpairs/s", float64(big.requests*bigBatchPairs)/big.busy.Seconds()/1e3, "2000-pair batches, one connection, closed loop")
	l.res.add("server.batch_overhead_frac", "ratio", (big.p50.median()*1e6-kernelUs)/(big.p50.median()*1e6),
		fmt.Sprintf("big batch RTT p50 %.0f us, of which in-process QueryBatch %.0f us", big.p50.median()*1e6, kernelUs))
	small, err := runPhase(smallBatchWindow, 2*l.depth("batch"), 0, floor,
		spanned("client.batch_small", batchWindowOf(c, srv, o, l.res, smallBatchWindow, smallBatchPairs, l.rng)))
	if err != nil {
		return err
	}
	l.res.addWindows("batch_small_p50_us", "us", &small.p50, 1e6)
	l.res.addWindows("server.small_batch_over_floor", "ratio", &small.over, 1)

	// Two connections, one second: informational (scheduler-bound).
	c2 := newClient()
	defer c2.close()
	pairs := uniformPairs(o, 4*pointWindow, l.rng)
	urls := make([]string, len(pairs))
	for i, p := range pairs {
		urls[i] = queryURL(srv.base, o, p)
	}
	var wg sync.WaitGroup
	counts := make([]int, 2)
	errs := make([]error, 2)
	t0 := time.Now()
	for k, cl := range []*client{c, c2} {
		wg.Add(1)
		go func(k int, cl *client) {
			defer wg.Done()
			for i := k; time.Since(t0) < time.Second; i += 2 {
				if _, err := cl.query(urls[i%len(urls)]); err != nil {
					errs[k] = err
					return
				}
				counts[k]++
			}
		}(k, cl)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	l.res.add("server.qps_c2", "1/s", float64(counts[0]+counts[1])/time.Since(t0).Seconds(), "two connections, closed loop, one second")
	srv.stop()
	return nil
}

// perOp times each call of f(i) for i in [0,count) as a root span and
// returns the per-window medians (windows of size per), in seconds.
func (l *ledger) perOp(name string, count, per int, f func(i int, span int)) *windows {
	w := &windows{samples: per}
	lat := make([]float64, 0, per)
	for i := 0; i < count; i++ {
		id := l.rec.begin(name, -1, l.rec.newOp(), 0)
		f(i, id)
		lat = append(lat, l.rec.end(id).Seconds())
		if len(lat) == per {
			p50, _, _ := latencyWindow(lat, 0.5)
			w.add(p50)
			lat = lat[:0]
		}
	}
	return w
}

// updateSection measures dynamic, wal and compact in process on the
// living graph: validation, the resumed searches of an insert, the
// durable append and its fsync, the pipeline's Update around them, both
// compaction modes and a WAL replay.
func (l *ledger) updateSection(livePath string) (*graph.Graph, error) {
	g, err := fileio.LoadGraph(livePath)
	if err != nil {
		return nil, err
	}
	d := l.depth("living")
	idx := core.Build(g, core.Options{Threads: 2, Policy: core.Dynamic})
	o := newOracle(g, 32, l.rng)
	nInserts := 100 * d
	stream, err := insertStream(g, 4*nInserts+200, l.rng)
	if err != nil {
		return nil, err
	}
	take := func(n int) []parapll.Edge {
		out := stream[:n]
		stream = stream[n:]
		return out
	}

	// dynamic: the same labels queried through both layers, then inserts.
	dyn := dynamic.FromIndex(g, idx)
	var pairs []pair
	var sink graph.Dist
	draw := func() { pairs = uniformPairs(o, kernelWindow, l.rng) }
	lq := l.kernelWindows("label.query", 5*d, draw, func(i int) { sink += idx.Query(o.s(pairs[i]), pairs[i].t) })
	dq := l.kernelWindows("dynamic.query", 5*d, draw, func(i int) { sink += dyn.Query(o.s(pairs[i]), pairs[i].t) })
	_ = sink
	l.res.addWindows("dynamic.query_ns", "ns", dq, 1)
	l.res.add("dynamic.query_over_label", "ratio", dq.median()/lq.median(), fmt.Sprintf("dynamic.Index.Query / label.Index.Query (%.0f ns) on the same labels, n=%d", lq.median(), g.NumVertices()))

	ins := take(nInserts)
	ci := l.kernelWindows("dynamic.check_insert", 3*d, func() {}, func(i int) {
		e := ins[i%len(ins)]
		if dyn.CheckInsert(e.U, e.V, e.W) != nil {
			l.res.check(false)
		}
	})
	l.res.add("dynamic.check_insert_us", "us", ci.median()/1e3, ci.describe(1e-3))
	before := dyn.NumEntries()
	iw := l.perOp("dynamic.insert_edge", len(ins), 50, func(i, _ int) {
		if err := dyn.InsertEdge(ins[i].U, ins[i].V, ins[i].W); err != nil {
			l.res.check(false)
		}
	})
	l.res.addWindows("dynamic.insert_us", "us", iw, 1e6)
	l.res.add("dynamic.entries_added_per_insert", "count", float64(dyn.NumEntries()-before)/float64(len(ins)), "label entries added per InsertEdge")
	after := o.on(withEdges(g, ins))
	for _, p := range uniformPairs(after, 1000, l.rng) {
		l.res.check(after.check(p, wireDist(dyn.Query(after.s(p), p.t))))
	}

	// wal: durable append, with the fsync inside it seen through the
	// log's own observer.
	log, _, err := wal.Open(filepath.Join(l.cfg.work, "probe.wal"))
	if err != nil {
		return nil, err
	}
	var fsyncs []float64
	cur := -1
	log.SetSyncObserver(func(el time.Duration) {
		fsyncs = append(fsyncs, el.Seconds())
		l.rec.add("wal.fsync", el, cur, l.rec.opOf(cur), 0)
	})
	var appendErr error
	aw := l.perOp("wal.append", len(ins), 50, func(i, id int) {
		cur = id
		if err := log.Append(ins[i].U, ins[i].V, ins[i].W); err != nil {
			appendErr = err
		}
	})
	bytes := log.Bytes()
	if err := log.Close(); err != nil && appendErr == nil {
		appendErr = err
	}
	if appendErr != nil {
		return nil, appendErr
	}
	l.res.addWindows("wal.append_us", "us", aw, 1e6)
	l.res.add("wal.fsync_us", "us", median(fsyncs)*1e6, fmt.Sprintf("SetSyncObserver, %d fsyncs (this sandbox's file system, not a device)", len(fsyncs)))
	l.res.add("wal.bytes_per_update", "B", float64(bytes)/float64(len(ins)), "Log.Bytes / appends")

	// compact: the pipeline's Update around those pieces, a fold, a
	// rebuild, and a reopen that replays the log.
	dir := filepath.Join(l.cfg.work, "pipe")
	open := func() (*compact.Pipeline, error) {
		return compact.Open(compact.Options{Dir: dir, Graph: g, Index: idx, Threads: 2,
			OnFsync: func(el time.Duration) { l.rec.add("wal.fsync", el, cur, l.rec.opOf(cur), 0) }})
	}
	pipe, err := open()
	if err != nil {
		return nil, err
	}
	var applied []parapll.Edge
	var updErr error
	update := func(es []parapll.Edge) *windows {
		w := l.perOp("compact.update", len(es), 20, func(i, id int) {
			cur = id
			if err := pipe.Update(es[i].U, es[i].V, es[i].W); err != nil {
				updErr = err
			}
		})
		applied = append(applied, es...)
		return w
	}
	verify := func() {
		now := o.on(withEdges(g, applied))
		for _, p := range uniformPairs(now, 500, l.rng) {
			l.res.check(now.check(p, wireDist(pipe.Query(now.s(p), p.t))))
		}
	}
	uw := update(take(60)) // below FoldLimit: the next compaction folds
	var fold, rebuild compact.Report
	_, foldD := l.span("compact.compact_fold", -1, func() { fold, err = pipe.Compact() })
	if err != nil {
		return nil, err
	}
	verify()
	more := update(take(nInserts + 40)) // above FoldLimit: the next one rebuilds
	uw.vals = append(uw.vals, more.vals...)
	_, rebuildD := l.span("compact.compact_rebuild", -1, func() { rebuild, err = pipe.Compact() })
	if err != nil {
		return nil, err
	}
	verify()
	update(take(nInserts)) // left in the log for the replay
	if updErr != nil {
		return nil, updErr
	}
	if err := pipe.Close(); err != nil {
		return nil, err
	}
	_, replayD := l.span("compact.open_replay", -1, func() { pipe, err = open() })
	if err != nil {
		return nil, err
	}
	verify()
	if err := pipe.Close(); err != nil {
		return nil, err
	}
	if fold.Mode != "fold" || rebuild.Mode != "rebuild" {
		return nil, fmt.Errorf("compaction modes were %q then %q, want fold then rebuild", fold.Mode, rebuild.Mode)
	}
	upd := uw.median() * 1e6
	parts := ci.median()/1e3 + aw.median()*1e6 + iw.median()*1e6
	l.res.addWindows("compact.update_us", "us", uw, 1e6)
	l.res.add("compact.update_unattributed_frac", "ratio", (upd-parts)/upd,
		fmt.Sprintf("Pipeline.Update %.0f us - (CheckInsert + wal.Append + InsertEdge = %.0f us)", upd, parts))
	l.res.add("compact.fold_ms", "ms", foldD.Seconds()*1e3, fmt.Sprintf("Pipeline.Compact, fold of %d records", fold.Folded))
	l.res.add("compact.rebuild_ms", "ms", rebuildD.Seconds()*1e3, fmt.Sprintf("Pipeline.Compact, rebuild over %d records", rebuild.Folded))
	l.res.add("compact.swap_us", "us", float64((fold.SwapTime+rebuild.SwapTime).Microseconds())/2, "Report.SwapTime, mean of the fold and the rebuild: the write-locked publish window")
	l.res.add("compact.open_replay_ms", "ms", replayD.Seconds()*1e3, fmt.Sprintf("compact.Open on a checkpoint plus %d logged records", nInserts))
	return g, nil
}

// livingServerSection runs a short steady state against the real server
// in living-graph mode for the two numbers only it can give: how much of
// the reader's time goes to stalled requests, and how many compactions
// the insert stream drove.
func (l *ledger) livingServerSection(livePath string, g *graph.Graph) error {
	cycles := 1 + l.depth("living")
	crashes := l.depth("living")
	initial := newOracle(g, 32, l.rng)
	stream, err := insertStream(g, cycles*compactEvery+crashes*insertsPerCrash, l.rng)
	if err != nil {
		return err
	}
	inserts := stream[:cycles*compactEvery]
	rc, wc := newClient(), newClient()
	defer rc.close()
	defer wc.close()
	args := []string{"-graph", livePath, "-wal", filepath.Join(l.cfg.work, "livewal"), "-compact-every", fmt.Sprint(compactEvery)}
	srv, err := startServer(l.cfg.tool("parapll-server"), filepath.Join(l.cfg.work, "server.log"), rc, args...)
	if err != nil {
		return err
	}
	defer func() { srv.kill() }()
	pool := uniformPairs(initial, 20000, l.rng)
	st, err := runSteady(srv, rc, wc, initial, pool, inserts, l.rec)
	if err != nil {
		return err
	}
	stats, err := fetchStats(rc, srv)
	if err != nil {
		return err
	}
	final := initial.on(withEdges(g, inserts))
	if err := st.checkReads(l.res, pool, initial, final); err != nil {
		return err
	}
	if err := recheck(l.res, rc, srv, final, recheckPairs, l.rng); err != nil {
		return err
	}
	id := l.rec.begin("client.crash_cycles", -1, l.rec.newOp(), 0)
	next, recover, _, err := crashCycles(l.cfg, l.res, rc, wc, srv, g, final, stream, len(inserts), crashes, args, l.rng)
	l.rec.end(id)
	if err != nil {
		return err
	}
	srv = next // the deferred kill stops it
	st.report(l.res.add)
	l.res.add("recover_s", "s", recover.median(),
		fmt.Sprintf("kill -9 to first correct answer on the real server, %d cycle(s) of %d more inserts", crashes, insertsPerCrash))
	l.res.add("compact.cycles", "count", float64(stats.Wal.Compactions), fmt.Sprintf("compactions_total after %d inserts at -compact-every %d", len(inserts), compactEvery))
	return nil
}
