package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"time"

	"parapll"
)

// Window sizes (requests per window). A window's p99 needs at least ten
// samples beyond it, so point-query windows hold 2000 requests; a
// 2000-pair batch takes milliseconds, so its windows hold 40 and the
// highest percentile they support is p75. The small batch is 4 pairs:
// the endpoint's per-request overhead, not the kernel (at 16 pairs two
// thirds of the request was JSON and kernel compute, which does not
// follow the floor; see README).
const (
	pointWindow      = 2000
	bigBatchWindow   = 40
	bigBatchPairs    = 2000
	smallBatchWindow = 1500
	smallBatchPairs  = 4
	hotSetPairs      = 4096
	warmQueries      = 5000
)

// served is the state every static serving workload prepares: the p2p
// graph on disk, its index built once by parapll-index, and the
// benchmark's own Dijkstra rows. Preparation is reported as prep_s and
// is not an end-to-end metric — index build time is what workload
// `build` measures, with repetitions.
type served struct {
	g     *parapll.Graph
	o     *oracle
	index built
	prep  time.Duration
}

// note describes the served graph and what preparation cost.
func (sv *served) note(cfg *config, res *result) {
	res.notef("graph: %s scale %g n=%d m=%d; prep_s=%.2f (gen + one index build + %d Dijkstra rows; not a metric)",
		p2pDataset, cfg.sizes().p2pScale, sv.g.NumVertices(), sv.g.NumEdges(), sv.prep.Seconds(), len(sv.o.sources))
}

func prepServe(cfg *config, rng *rand.Rand) (*served, error) {
	sz := cfg.sizes()
	t0 := time.Now()
	graphPath, err := genDataset(cfg, p2pDataset, sz.p2pScale, filepath.Join(cfg.work, "p2p"))
	if err != nil {
		return nil, err
	}
	idx, err := buildIndex(cfg, graphPath, filepath.Join(cfg.work, "p2p.midx"))
	if err != nil {
		return nil, err
	}
	g, err := parapll.LoadGraph(graphPath)
	if err != nil {
		return nil, err
	}
	return &served{g: g, o: newOracle(g, sz.sources, rng), index: idx, prep: time.Since(t0)}, nil
}

// setUpServer repeats the static workloads' set-up sequence — exec
// parapll-server on the index with its defaults, wait for /readyz, warm
// it with checked queries, stop — and leaves the last repetition's
// server running for the measurement. setup holds each repetition's
// wall time.
func setUpServer(cfg *config, res *result, c *client, sv *served, rng *rand.Rand) (srv *server, setup windows, err error) {
	sz := cfg.sizes()
	warm := warmQueries
	if cfg.smoke {
		warm = 500
	}
	for i := 0; i < sz.setups; i++ {
		pairs := uniformPairs(sv.o, warm, rng)
		t0 := time.Now()
		srv, err = coldStart(cfg, res, c, sv.o, pairs[0], "-index", sv.index.outPath)
		if err != nil {
			return nil, setup, err
		}
		if err := checkPairs(res, c, srv, sv.o, pairs[1:]); err != nil {
			return nil, setup, err
		}
		setup.add(time.Since(t0).Seconds())
		if i < sz.setups-1 {
			srv.stop()
		}
	}
	return srv, setup, nil
}

// Floor normalisation. A loopback round trip of one small request is
// mostly privileged work — syscalls, thread wake-ups, vCPU halts — and
// on this kind of machine its price moves by a factor of two from one
// minute to the next, taking everything else in the server's request
// path with it (the state multiplies: /query over an empty request stays
// within a few per cent while both move together). So on paths that are
// one small request per round trip, every block of floorBlock requests
// is followed by as many OPTIONS * on the same connection, and a window
// reports, beside its latency as measured, that latency times
// floorNominal over the window's OPTIONS * median: what the request
// would take in a machine state where the empty one takes floorNominal.
//
// OPTIONS * is answered by net/http's server itself and never reaches
// the program's handler, so the reference holds none of this
// repository's code: anything the program does per request — mux,
// middleware, parsing, cache, kernel, JSON — is in the numerator only,
// and a change to any of it moves the metric the way it moves the
// latency. What cancels is the standard library, the kernel and the
// machine. Compute-bound and fsync-bound operations (an index build, a
// 2000-pair batch, a durable insert, a read waiting for the write lock)
// have no such reference and are reported as measured.
const (
	floorBlock   = 50
	floorNominal = 40e-6 // seconds: a typical OPTIONS * round trip here
)

// phase is the outcome of one closed-loop measurement phase on one
// connection. Every field holds one value per window, in seconds as
// measured, except over: the window's median over its floor's median.
type phase struct {
	p50, pp, tail windows // median, the tailP quantile, the mean beyond it
	floor, over   windows // empty when the phase has no floor
	tailP         float64 // the highest quantile a window supports
	requests      int
	busy          time.Duration // sum of timed windows (gaps between windows excluded)
}

// window is one window's requests, prepared outside the timed region.
// send issues request i and keeps its reply; only that call is timed,
// and it ends when the reply's bytes have been read. verify decodes and
// checks every reply once the window's clock has stopped.
type window struct {
	send   func(i int) error
	verify func() error
}

// runPhase runs windows of perWindow requests until budget has elapsed
// and at least minWindows are done. A non-nil floor is the interleaved
// empty request.
func runPhase(perWindow, minWindows int, budget time.Duration, floor func() error, next func() (window, error)) (*phase, error) {
	ph := &phase{tailP: tailPercentile(perWindow)}
	for _, w := range []*windows{&ph.p50, &ph.pp, &ph.tail, &ph.floor, &ph.over} {
		w.samples = perWindow
	}
	lat := make([]float64, perWindow)
	var fl []float64
	start := time.Now()
	for w := 0; w < minWindows || time.Since(start) < budget; w++ {
		win, err := next()
		if err != nil {
			return nil, err
		}
		fl = fl[:0]
		w0 := time.Now()
		for i := range lat {
			t0 := time.Now()
			if err := win.send(i); err != nil {
				return nil, err
			}
			lat[i] = time.Since(t0).Seconds()
			if floor != nil && (i+1)%floorBlock == 0 {
				for j := 0; j < floorBlock; j++ {
					t0 := time.Now()
					if err := floor(); err != nil {
						return nil, err
					}
					fl = append(fl, time.Since(t0).Seconds())
				}
			}
		}
		ph.busy += time.Since(w0)
		ph.requests += perWindow
		if err := win.verify(); err != nil {
			return nil, err
		}
		p50, pp, tail := latencyWindow(lat, ph.tailP)
		ph.p50.add(p50)
		ph.pp.add(pp)
		ph.tail.add(tail)
		if floor != nil {
			f, _, _ := latencyWindow(fl, 0.5)
			ph.floor.add(f)
			ph.over.add(p50 / f)
		}
	}
	return ph, nil
}

// addRequest reports a floored phase: the gated req_p50_us (the median
// at the nominal floor), and beside it the latency as measured under
// the issue's name for it, the floor, and their ratio.
func (ph *phase) addRequest(res *result, measuredName, ratioName string) {
	res.addWindows("req_p50_us", "us", &ph.over, floorNominal*1e6)
	ph.alsoRequest(res, measuredName, ratioName)
	res.alsoWindows("server.http_floor_us", "us", &ph.floor, 1e6)
}

// alsoRequest reports a floored phase that is not the workload's gated
// one: as measured, and over its floor.
func (ph *phase) alsoRequest(res *result, measuredName, ratioName string) {
	res.alsoWindows(measuredName, "us", &ph.p50, 1e6)
	res.alsoWindows(ratioName, "ratio", &ph.over, 1)
}

// pointWindowOf returns a runPhase generator issuing /query for the
// pairs draw() yields.
func pointWindowOf(c *client, srv *server, o *oracle, res *result, draw func() []pair) func() (window, error) {
	return func() (window, error) {
		pairs := draw()
		urls := make([]string, len(pairs))
		for i, p := range pairs {
			urls[i] = queryURL(srv.base, o, p)
		}
		replies := make([][]byte, len(pairs))
		return window{
			send: func(i int) (err error) {
				replies[i], err = c.fetch("GET", urls[i], nil)
				return err
			},
			verify: func() error {
				for i, p := range pairs {
					got, err := decodeDist(replies[i])
					if err != nil {
						return err
					}
					res.check(o.check(p, got))
				}
				return nil
			},
		}, nil
	}
}

// batchBody encodes pairs as a /batch request body.
func batchBody(o *oracle, pairs []pair) []byte {
	var b bytes.Buffer
	b.WriteString(`{"pairs":[`)
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(int(o.s(p))))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(int(p.t)))
		b.WriteByte(']')
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// batchWindowOf returns a runPhase generator posting /batch requests of
// perRequest uniform pairs each.
func batchWindowOf(c *client, srv *server, o *oracle, res *result, requests, perRequest int, rng *rand.Rand) func() (window, error) {
	url := srv.base + "/batch"
	return func() (window, error) {
		pairs := uniformPairs(o, requests*perRequest, rng)
		bodies := make([][]byte, requests)
		for i := range bodies {
			bodies[i] = batchBody(o, pairs[i*perRequest:(i+1)*perRequest])
		}
		replies := make([][]byte, requests)
		return window{
			send: func(i int) (err error) {
				replies[i], err = c.fetch("POST", url, bodies[i])
				return err
			},
			verify: func() error {
				for i, reply := range replies {
					dists, err := decodeDists(reply)
					if err != nil {
						return err
					}
					want := pairs[i*perRequest : (i+1)*perRequest]
					if len(dists) != len(want) {
						return fmt.Errorf("/batch answered %d distances for %d pairs", len(dists), len(want))
					}
					for j, p := range want {
						res.check(o.check(p, dists[j]))
					}
				}
				return nil
			},
		}, nil
	}
}

// staticMetrics fills the end-to-end metrics of the two static serving
// workloads, apart from req_p50_us.
func staticMetrics(res *result, sv *served, setup windows, u usage) {
	res.addWindows("setup_s", "s", &setup, 1)
	res.add("rss_mb", "MB", u.rssMB, "server peak RSS over its lifetime (VmHWM)")
	res.add("ln", "count", sv.index.ln, "average label size of the served index")
	res.add("index_mb", "MB", sv.index.sizeMB, "served PIDM bytes on disk")
}

// runServePoint is workload `serve_point`: the server's mux,
// middleware, parsing and JSON are nearly all of what the program adds
// to a point query, the merge kernel a few per cent. First phase:
// uniform pairs, working set far beyond the cache (miss + put). Second
// phase: Zipf over a hot set that fits the cache (hit).
func runServePoint(cfg *config) (*result, error) {
	sz := cfg.sizes()
	res := &result{}
	rng := rand.New(rand.NewSource(cfg.seed))
	sv, err := prepServe(cfg, rng)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	srv, setup, err := setUpServer(cfg, res, c, sv, rng)
	if err != nil {
		return nil, err
	}
	defer srv.kill()

	budget := time.Duration(cfg.seconds / 2 * float64(time.Second))
	floor := func() error { return c.floor(srv.base) }
	uniform, err := runPhase(pointWindow, sz.minWindows, budget, floor,
		pointWindowOf(c, srv, sv.o, res, func() []pair { return uniformPairs(sv.o, pointWindow, rng) }))
	if err != nil {
		return nil, err
	}
	// The hot set is fixed for the run; each window redraws which of its
	// pairs are asked for. One untimed pass puts the whole set in cache.
	hot := newHotSet(sv.o, hotSetPairs, rng)
	if err := checkPairs(res, c, srv, sv.o, hot.pairs); err != nil {
		return nil, err
	}
	hotPhase, err := runPhase(pointWindow, sz.minWindows, budget, floor,
		pointWindowOf(c, srv, sv.o, res, func() []pair { return hot.draw(pointWindow) }))
	if err != nil {
		return nil, err
	}
	u := srv.stop()

	sv.note(cfg, res)
	res.notef("req = GET /query, uniform pairs over %d x %d, beyond the cache; then Zipf(1.1) over %d fixed pairs, inside it; one keep-alive connection, closed loop; OPTIONS * after every %d requests",
		len(sv.o.sources), sv.o.n, hotSetPairs, floorBlock)
	staticMetrics(res, sv, setup, u)
	uniform.addRequest(res, "point_p50_us", "server.query_over_floor")
	res.alsoWindows("point_p99_us", "us", &uniform.pp, 1e6)
	res.alsoWindows("point_tail_us", "us", &uniform.tail, 1e6)
	hotPhase.alsoRequest(res, "point_hot_p50_us", "server.hot_over_floor")
	return res, nil
}

// runServeBatch is workload `serve_batch`. First phase: 2000 uniform
// pairs per request, so the label merge kernel and QueryBatch's fan-out
// do most of the work. Second phase: 16 pairs per request — the same
// endpoint dominated by HTTP and JSON again, so a kernel gain bought
// with per-request overhead shows.
func runServeBatch(cfg *config) (*result, error) {
	sz := cfg.sizes()
	res := &result{}
	rng := rand.New(rand.NewSource(cfg.seed))
	sv, err := prepServe(cfg, rng)
	if err != nil {
		return nil, err
	}
	c := newClient()
	defer c.close()
	srv, setup, err := setUpServer(cfg, res, c, sv, rng)
	if err != nil {
		return nil, err
	}
	defer srv.kill()

	budget := time.Duration(cfg.seconds / 2 * float64(time.Second))
	big, err := runPhase(bigBatchWindow, sz.minWindows, budget, nil,
		batchWindowOf(c, srv, sv.o, res, bigBatchWindow, bigBatchPairs, rng))
	if err != nil {
		return nil, err
	}
	small, err := runPhase(smallBatchWindow, sz.minWindows, budget, func() error { return c.floor(srv.base) },
		batchWindowOf(c, srv, sv.o, res, smallBatchWindow, smallBatchPairs, rng))
	if err != nil {
		return nil, err
	}
	u := srv.stop()

	sv.note(cfg, res)
	res.notef("POST /batch of %d uniform pairs, as measured (p%g is the highest quantile a window of %d supports); then req = POST /batch of %d pairs, OPTIONS * after every %d; one keep-alive connection, closed loop",
		bigBatchPairs, big.tailP*100, bigBatchWindow, smallBatchPairs, floorBlock)
	staticMetrics(res, sv, setup, u)
	small.addRequest(res, "batch_small_p50_us", "server.small_batch_over_floor")
	res.alsoWindows("batch_p50_ms", "ms", &big.p50, 1e3)
	res.alsoWindows("batch_tail_ms", "ms", &big.tail, 1e3)
	res.also("batch_kpairs_s", "kpairs/s", float64(big.requests*bigBatchPairs)/big.busy.Seconds()/1e3,
		fmt.Sprintf("thousand pairs per second: %d pairs over %.2f s of big-batch windows", big.requests*bigBatchPairs, big.busy.Seconds()))
	return res, nil
}
