// parapll-server serves a built index as an HTTP JSON API — distance
// queries, batches, path reconstruction when the graph is given, stats,
// and the observability endpoints /metrics and /healthz.
//
// The listener comes up immediately; the index loads (or builds) in the
// background and is published atomically when ready. Until then /readyz
// answers 503 and query endpoints answer 503 "index is still loading",
// so orchestrators can distinguish "starting" from "broken". A running
// server hot-swaps its index without dropping queries via POST /reload
// (optionally {"path": "other.idx"}) or SIGHUP.
//
// Usage:
//
//	parapll-server -index g.idx -addr :8080              # maps it: O(1) open
//	parapll-server -graph g.bin -addr :8080              # index on startup; /path too
//	parapll-server -index g.idx -graph g.bin -addr :8080 # mapped index, /path over g.bin
//	parapll-server -index g.idx -pprof -addr :8080       # + /debug/pprof/
//
// Endpoints: GET /query?s=&t=   POST /batch   GET /path?s=&t=
// GET /stats   POST /update   POST /reload   GET /readyz
// GET /metrics (JSON, or Prometheus text under Accept: text/plain)
// GET /healthz   GET /debug/slow   GET /debug/trace?sec=N
// GET /debug/explain?s=&t=   GET /debug/health   GET /debug/bundle
// and, with -pprof, the standard net/http/pprof handlers under
// /debug/pprof/ (opt-in: profiling endpoints leak internals and cost
// CPU, so they stay off unless asked for).
//
// Serving flags: -cache-entries bounds the (s,t) distance cache
// (4-way set-associative, so N is rounded down to a multiple of 4;
// generation-keyed, so a /reload hot-swap can never serve distances
// from the previous graph; 0 disables); -batch-threads caps the
// goroutine fan-out of one /batch request.
//
// Living-graph flags: -wal DIR turns the server into an updatable
// deployment — POST /update durably inserts edges (fsynced to
// DIR/wal.log before they are applied, so acknowledged inserts survive
// kill -9, and replayed on restart), -compact-every N folds the log
// into a fresh checkpoint artifact in the background once it holds N
// records (publishing it through the same generation machinery as
// /reload); -threads sizes the first-boot build and every rebuild.
// Living-graph mode needs -graph, and it disables the distance cache:
// distances mutate within a generation, so a cached answer could
// outlive the insert that shortened it.
//
// Observability flags: every request's record is its trace span. A
// request taking -slow-ms or longer always writes it to the slow lane,
// which GET /debug/slow lists; -trace-sample N writes one for 1 in N of
// the others to the request lane. -trace FILE writes the recorded
// timeline as Chrome trace-event JSON on SIGINT/SIGTERM, from a tracer
// of 16Ki events a lane where the server's own holds 256.
// GET /debug/trace?sec=N captures a live window with or without these
// flags.
//
// Diagnostics flags: -flight DIR arms the always-on flight recorder —
// a bounded spool of self-contained incident bundles (recent trace,
// metrics, goroutine/heap profiles, /stats with its WAL section) written on
// GET /debug/bundle, on any handler panic, on SIGQUIT, and on every SLO
// breach (at most one breach capture per flight.MinGap; the spool keeps
// flight.MaxBundles bundles, each with flight.TraceWindow of trace).
// -slo-window-ms arms the anomaly watchdog (GET /debug/health, slo.*
// gauges on /metrics): -slo-query-p99-us watches the p99 of each
// window's /query and /batch requests, read from the same
// http.latency_us.* histograms /metrics shows, -slo-fsync-p99-us the
// WAL fsync p99 (living-graph mode),
// -slo-compact-ms flags a compaction running past its deadline, and a
// reload-failure rule is always on.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parapll"
	"parapll/internal/compact"
	"parapll/internal/fileio"
	"parapll/internal/flight"
	"parapll/internal/metrics"
	"parapll/internal/server"
)

func main() {
	var (
		indexPath = flag.String("index", "", "pre-built index file (from parapll-index)")
		graphPath = flag.String("graph", "", "graph file; indexed at startup if -index is not given, and walked by /path")
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		threads   = flag.Int("threads", 0, "indexing threads, also for living-graph builds and rebuilds (0 = all cores)")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		traceOut  = flag.String("trace", "", "on SIGINT/SIGTERM, write the recorded request timeline here as Chrome trace-event JSON (lanes of 16Ki events, not 256)")
		traceRate = flag.Int64("trace-sample", 0, "record request spans for 1 in N requests (0 = only slow requests and GET /debug/trace captures, 1 = every request)")
		slowMS    = flag.Int64("slow-ms", 100, "a request taking this many milliseconds or more writes its span to the slow lane GET /debug/slow lists (0 disables)")
		cacheEnts = flag.Int("cache-entries", 65536, "bound of the (s,t) distance cache, positive and negative answers, rounded down to a multiple of 4 (0 disables)")
		batchThr  = flag.Int("batch-threads", 0, "goroutine fan-out per /batch request (0 = min(4, GOMAXPROCS))")
		walDir    = flag.String("wal", "", "living-graph mode: directory for the edge-update WAL and compaction checkpoints (needs -graph; enables POST /update)")
		compactN  = flag.Int("compact-every", 0, "living-graph mode: background-compact once the WAL holds this many records (0 = only on restart)")

		flightDir = flag.String("flight", "", "arm the flight recorder: spool incident bundles into this directory (enables GET /debug/bundle, panic/SIGQUIT dumps)")

		sloWindowMS   = flag.Int64("slo-window-ms", 0, "arm the anomaly watchdog with this evaluation window (0 = off; enables GET /debug/health)")
		sloQueryP99US = flag.Int64("slo-query-p99-us", 0, "SLO: breach when the windowed /query+/batch p99 exceeds this many microseconds (0 = rule off)")
		sloFsyncP99US = flag.Int64("slo-fsync-p99-us", 0, "SLO: breach when the windowed WAL fsync p99 exceeds this many microseconds (living-graph mode; 0 = rule off)")
		sloCompactMS  = flag.Int64("slo-compact-ms", 0, "SLO: breach when a compaction has been running longer than this many milliseconds (0 = rule off)")
	)
	flag.Parse()
	if *indexPath == "" && *graphPath == "" {
		fatalf("need -index or -graph")
	}
	if *walDir != "" && *graphPath == "" {
		fatalf("-wal needs -graph (the pipeline folds updates into the graph)")
	}
	if *walDir != "" && *cacheEnts != 0 {
		// Living-graph distances mutate within a generation; the
		// generation-keyed cache would serve overestimates.
		*cacheEnts = 0
	}

	reg := metrics.NewRegistry()
	var tr *parapll.Tracer
	if *traceRate > 0 || *traceOut != "" {
		tr = parapll.NewTracer(0, 0)
		if *traceRate > 0 {
			tr.SetSample(uint64(*traceRate))
			tr.Enable()
		}
		// With only -trace, the tracer records slow requests alone
		// until a GET /debug/trace capture turns it on for its window.
	}
	if *traceOut != "" {
		term := make(chan os.Signal, 1)
		signal.Notify(term, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-term
			if err := tr.WriteFile(*traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "parapll-server: writing trace: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("trace: %d events (%d dropped) -> %s\n", len(tr.Events()), tr.Drops(), *traceOut)
			os.Exit(0)
		}()
	}

	// The recorder's and the watchdog's sources read srv and wd, which
	// are built after them; nothing calls a source before the signal
	// handlers and the listener start, below.
	var (
		srv *server.Server
		rec *flight.Recorder
		wd  *flight.Watchdog
	)
	// Flight recorder: bundles are only as good as the trace they embed,
	// so -flight with no tracer arms one recording every request.
	if *flightDir != "" {
		if tr == nil {
			tr = parapll.NewTracer(0, 0)
			tr.SetSample(1)
			tr.Enable()
		}
		var err error
		rec, err = flight.New(*flightDir, flight.Sources{
			Tracer:   tr,
			Registry: reg,
			Stats:    func() any { return srv.StatsPayload() },
			Health: func() any {
				if wd == nil {
					return nil
				}
				return wd.Health()
			},
		})
		if err != nil {
			fatalf("arming flight recorder: %v", err)
		}
	}

	// Anomaly watchdog: windowed SLO verdicts at /debug/health, slo.*
	// gauges on /metrics, and (with -flight) a rate-limited capture on
	// every breach.
	var fsyncHist *metrics.Histogram
	var rules []string
	if *sloWindowMS > 0 {
		wd = flight.NewWatchdog(flight.WatchdogOptions{
			Window:   time.Duration(*sloWindowMS) * time.Millisecond,
			Registry: reg,
			Recorder: rec,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "parapll-server: "+format+"\n", args...)
			},
		})
		if *sloQueryP99US > 0 {
			// The server observes every request into these as it
			// registers its routes; the rule judges the user-visible
			// distance endpoints, not debug or admin traffic.
			wd.AddLatencyRule("query_p99", "us", 0.99, *sloQueryP99US, 1,
				reg.Histogram("http.latency_us.query", metrics.DefaultLatencyBuckets),
				reg.Histogram("http.latency_us.batch", metrics.DefaultLatencyBuckets))
			rules = append(rules, fmt.Sprintf("query p99 > %dus", *sloQueryP99US))
		}
		if *sloFsyncP99US > 0 && *walDir != "" {
			fsyncHist = metrics.NewHistogram(metrics.DefaultLatencyBuckets)
			wd.AddLatencyRule("wal_fsync_p99", "us", 0.99, *sloFsyncP99US, 1, fsyncHist)
			rules = append(rules, fmt.Sprintf("wal fsync p99 > %dus", *sloFsyncP99US))
		}
		if *sloCompactMS > 0 && *walDir != "" {
			deadline := *sloCompactMS
			wd.AddProbeRule("compact_deadline", "ms", deadline, func() (int64, bool) {
				up := srv.Updater()
				if up == nil {
					return 0, false
				}
				since := up.Stats().CompactingSinceUnixNano
				if since == 0 {
					return 0, false
				}
				ms := (time.Now().UnixNano() - since) / int64(time.Millisecond)
				return ms, ms > deadline
			})
			rules = append(rules, fmt.Sprintf("compact > %dms", deadline))
		}
	}

	slow := time.Duration(*slowMS) * time.Millisecond
	if slow == 0 {
		slow = -1 // -slow-ms 0: no request is slow; a zero Options field means its default
	}
	srv = server.NewPending(&server.Options{
		Registry:      reg,
		Loader:        fileio.LoadIndex,
		BatchThreads:  *batchThr,
		SlowThreshold: slow,
		Tracer:        tr,
		Flight:        rec,
		Watchdog:      wd,
	})
	srv.SetCacheEntries(*cacheEnts) // before the first Publish: snapshots wrap at publish time

	if rec != nil {
		// SIGQUIT = "dump evidence and die": the bundle carries the same
		// goroutine stacks the default handler would print, plus the
		// trace/metrics context the stacks alone lack.
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			<-quit
			path, err := rec.Trigger("sigquit")
			if err != nil {
				fmt.Fprintf(os.Stderr, "parapll-server: SIGQUIT flight capture: %v\n", err)
				os.Exit(2)
			}
			fmt.Fprintf(os.Stderr, "parapll-server: SIGQUIT: flight bundle -> %s\n", path)
			os.Exit(2)
		}()
		fmt.Printf("flight recorder armed: spool %s (keep %d)\n", *flightDir, flight.MaxBundles)
	}
	if wd != nil {
		wd.AddCounterRule("reload_failures", srv.ReloadFailures(), 0)
		rules = append(rules, "any reload failure")
		wd.Start()
		fmt.Printf("watchdog armed: window %dms (%s)\n",
			*sloWindowMS, strings.Join(rules, ", "))
	}

	// Load or build off-thread so the listener (and /readyz, /healthz,
	// /metrics) is up from the first moment.
	go func() {
		if *walDir != "" {
			opt := compact.Options{Dir: *walDir, CompactEvery: *compactN, Threads: *threads, Tracer: tr}
			if fsyncHist != nil { // feeds the watchdog's wal_fsync_p99 rule
				opt.OnFsync = func(d time.Duration) { fsyncHist.Observe(d.Microseconds()) }
			}
			prepareLive(srv, opt, *indexPath, *graphPath)
			return
		}
		idx, g, source := prepare(*indexPath, *graphPath, *threads)
		// Described before Publish: the server owns idx from there on,
		// and a SIGHUP reload may close it.
		desc := fmt.Sprintf("n=%d, entries=%d, LN=%.1f, format=%s, mmap=%v, paths=%v",
			idx.NumVertices(), idx.NumEntries(), idx.AvgLabelSize(), idx.Format(), idx.Mapped(), g != nil)
		gen := srv.Publish(idx, g, source)
		fmt.Printf("ready: generation %d  (%s)\n", gen, desc)
	}()

	// SIGHUP re-reads the current index file and swaps it in atomically —
	// the classic "rotate the artifact, nudge the daemon" flow.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			gen, err := srv.Reload("")
			if err != nil {
				fmt.Fprintf(os.Stderr, "parapll-server: SIGHUP reload: %v\n", err)
				continue
			}
			fmt.Printf("SIGHUP reload: now at generation %d\n", gen)
		}
	}()

	handler := http.Handler(srv)
	if *pprofOn {
		mux := http.NewServeMux()
		mux.Handle("/", srv)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
	}

	fmt.Printf("listening on http://%s  (pprof=%v); index loading in background, poll /readyz\n",
		*addr, *pprofOn)
	if err := newHTTPServer(*addr, handler).ListenAndServe(); err != nil {
		fatalf("%v", err)
	}
}

// newHTTPServer is the listener's configuration: a connection that has
// not finished sending a request's header after 5 s, or a kept-alive one
// that has been silent for 2 min, is closed, so a slow or stalled client
// holds a goroutine and a descriptor only that long. No read or write
// deadline on bodies: /debug/pprof/profile and a large /batch take as
// long as they take.
func newHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// prepareLive boots the living-graph pipeline: open (or create) the
// WAL directory's checkpoint + log, replay pending updates, and publish
// the checkpoint artifact as the first snapshot, carrying the pipeline
// as its updater. Compactions publish their fresh artifact back through
// the server's /reload machinery, so the generation counter advances
// exactly once per checkpoint roll. opt holds the flag-driven fields;
// the graph, the seed index and the callbacks are filled in here.
func prepareLive(srv *server.Server, opt compact.Options, indexPath, graphPath string) {
	g, err := parapll.LoadGraph(graphPath)
	if err != nil {
		fatalf("loading graph: %v", err)
	}
	opt.Graph = g
	if indexPath != "" {
		if opt.Index, err = fileio.LoadIndex(indexPath); err != nil {
			fatalf("loading index: %v", err)
		}
	}
	var pipe *compact.Pipeline
	opt.OnPublish = func(rep compact.Report) {
		gen, err := srv.Reload(pipe.IndexPath())
		if err != nil {
			fmt.Fprintf(os.Stderr, "parapll-server: publishing compacted checkpoint: %v\n", err)
			return
		}
		fmt.Printf("compaction published: generation %d (%s of %d records, swap %s)\n",
			gen, rep.Mode, rep.Folded, rep.SwapTime.Round(time.Microsecond))
	}
	opt.Logf = func(format string, args ...interface{}) {
		fmt.Fprintf(os.Stderr, "parapll-server: "+format+"\n", args...)
	}
	t0 := time.Now()
	pipe, err = compact.Open(opt)
	if err != nil {
		fatalf("opening living-graph pipeline: %v", err)
	}
	if opt.Index != nil {
		opt.Index.Close() // saved as the first checkpoint, or superseded by one
	}
	idx, err := fileio.LoadIndex(pipe.IndexPath())
	if err != nil {
		fatalf("loading checkpoint index: %v", err)
	}
	gen := srv.PublishLive(pipe, idx, pipe.IndexPath())
	st := pipe.Stats()
	fmt.Printf("ready (living-graph): generation %d  (n=%d, wal=%d records, compact-every=%d) in %.2fs\n",
		gen, g.NumVertices(), st.WALRecords, opt.CompactEvery, time.Since(t0).Seconds())
	// A WAL already past the threshold (accumulated while down) should
	// not wait for the next insert to fold.
	if opt.CompactEvery > 0 && st.WALRecords >= opt.CompactEvery {
		go func() {
			if _, err := pipe.Compact(); err != nil {
				fmt.Fprintf(os.Stderr, "parapll-server: boot compaction: %v\n", err)
			}
		}()
	}
}

// prepare loads or builds the index, and loads the graph /path walks
// when graphPath names one. It runs off the main goroutine; failures are
// fatal: the server cannot become ready without an index, nor serve one
// beside a graph of another size.
func prepare(indexPath, graphPath string, threads int) (*parapll.Index, *parapll.Graph, string) {
	var g *parapll.Graph
	if graphPath != "" {
		var err error
		if g, err = parapll.LoadGraph(graphPath); err != nil {
			fatalf("loading graph: %v", err)
		}
	}
	if indexPath == "" {
		t0 := time.Now()
		prog := &parapll.BuildProgress{}
		stopLog := prog.Log(t0)
		idx := parapll.Build(g, parapll.Options{Threads: threads, Policy: parapll.Dynamic, Progress: prog})
		stopLog()
		fmt.Printf("indexed %d vertices in %.2fs\n", g.NumVertices(), time.Since(t0).Seconds())
		return idx, g, graphPath
	}
	t0 := time.Now()
	idx, err := fileio.LoadIndex(indexPath)
	if err != nil {
		fatalf("loading index: %v", err)
	}
	fmt.Printf("opened %s in %.1fms (format=%s, mmap=%v)\n",
		indexPath, float64(time.Since(t0).Microseconds())/1e3, idx.Format(), idx.Mapped())
	if g != nil && g.NumVertices() != idx.NumVertices() {
		fatalf("-index %s has %d vertices and -graph %s has %d: the index is not of this graph",
			indexPath, idx.NumVertices(), graphPath, g.NumVertices())
	}
	return idx, g, indexPath
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "parapll-server: "+format+"\n", args...)
	os.Exit(1)
}
