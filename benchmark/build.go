package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"parapll"
)

// Datasets. The p2p graph is the one every static workload serves; the
// road graph is the second shape of the build workload (engine and
// ordering changes have moved the two in opposite directions); the
// living graph is smaller so that several background compactions fit
// inside one run.
const (
	p2pDataset  = "Gnutella"
	roadDataset = "RI-USA"
)

// genDataset runs parapll-gen into dir and returns the graph file.
func genDataset(cfg *config, name string, scale float64, dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	if _, err := runTool(cfg.tool("parapll-gen"), "-dataset", name, "-scale", fmt.Sprint(scale), "-out", dir); err != nil {
		return "", err
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.bin"))
	if len(files) != 1 {
		return "", fmt.Errorf("parapll-gen -dataset %s left %d .bin files in %s", name, len(files), dir)
	}
	return files[0], nil
}

// built is one parapll-index invocation's outcome.
type built struct {
	usage
	ln      float64 // average label size the tool printed
	sizeMB  float64 // PIDM bytes on disk
	outPath string
}

var lnPattern = regexp.MustCompile(`LN=([0-9.]+)`)

// buildIndex runs parapll-index the way the paper's headline table
// does — two threads, degree order, per-root engine — writing the
// mmap-native serving format.
func buildIndex(cfg *config, graphPath, out string) (built, error) {
	u, err := runTool(cfg.tool("parapll-index"), "-graph", graphPath, "-out", out,
		"-threads", "2", "-order", "degree", "-engine", "perroot", "-format", "mmap")
	if err != nil {
		return built{}, err
	}
	m := lnPattern.FindStringSubmatch(u.stdout)
	if m == nil {
		return built{}, fmt.Errorf("parapll-index printed no LN: %q", u.stdout)
	}
	ln, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		return built{}, fmt.Errorf("parapll-index LN %q: %w", m[1], err)
	}
	st, err := os.Stat(out)
	if err != nil {
		return built{}, err
	}
	return built{usage: u, ln: ln, sizeMB: float64(st.Size()) / (1 << 20), outPath: out}, nil
}

// checkIndexFile opens a PIDM the program wrote, verifies its integrity
// and compares count seeded pairs against Dijkstra.
func checkIndexFile(res *result, path string, o *oracle, count int, rng *rand.Rand) error {
	idx, err := parapll.LoadIndex(path)
	if err != nil {
		return fmt.Errorf("opening %s: %w", path, err)
	}
	defer idx.Close()
	if err := idx.Verify(); err != nil {
		return fmt.Errorf("verifying %s: %w", path, err)
	}
	for _, p := range uniformPairs(o, count, rng) {
		res.check(o.check(p, wireDist(idx.Query(o.s(p), p.t))))
	}
	return nil
}

// coldStart execs parapll-server with args and returns once it is ready
// and has answered p, which is checked: the time from "start the daemon
// on existing state" to an answer.
func coldStart(cfg *config, res *result, c *client, o *oracle, p pair, args ...string) (*server, error) {
	srv, err := startServer(cfg.tool("parapll-server"), filepath.Join(cfg.work, "server.log"), c, args...)
	if err != nil {
		return nil, err
	}
	return srv, checkPairs(res, c, srv, o, []pair{p})
}

// checkPairs issues /query for each pair on c and checks the answers.
func checkPairs(res *result, c *client, srv *server, o *oracle, pairs []pair) error {
	for _, p := range pairs {
		got, err := c.query(queryURL(srv.base, o, p))
		if err != nil {
			return err
		}
		res.check(o.check(p, got))
	}
	return nil
}

func queryURL(base string, o *oracle, p pair) string {
	return fmt.Sprintf("%s/query?s=%d&t=%d", base, o.s(p), p.t)
}

// runBuild is workload `build`: core, pll, order and label.Store do
// nearly all the work. The server runs only at the end, on the last
// index the trials built: the contract has every workload report every
// end-to-end metric, and a build time cannot be one here (see README),
// so what this workload gates beside LN and the file size is that the
// index it built serves point queries as fast as before.
func runBuild(cfg *config) (*result, error) {
	sz := cfg.sizes()
	res := &result{}
	rng := rand.New(rand.NewSource(cfg.seed))

	// Set-up: generate both datasets to disk and load them, several
	// times; the last repetition's files and graphs are the ones used.
	var setup windows
	var p2pPath, roadPath string
	var p2p, road *parapll.Graph
	for i := 0; i < 5*sz.setups; i++ { // a repetition is ~25 ms, so five times as many as elsewhere
		dir := filepath.Join(cfg.work, fmt.Sprintf("data%d", i))
		t0 := time.Now()
		var err error
		if p2pPath, err = genDataset(cfg, p2pDataset, sz.p2pScale, filepath.Join(dir, "p2p")); err != nil {
			return nil, err
		}
		if roadPath, err = genDataset(cfg, roadDataset, sz.roadScale, filepath.Join(dir, "road")); err != nil {
			return nil, err
		}
		if p2p, err = parapll.LoadGraph(p2pPath); err != nil {
			return nil, err
		}
		if road, err = parapll.LoadGraph(roadPath); err != nil {
			return nil, err
		}
		setup.add(time.Since(t0).Seconds())
	}
	// Not on any timed path: the answer tables.
	p2pOracle := newOracle(p2p, sz.sources/4, rng)
	roadOracle := newOracle(road, 32, rng)

	// Trials alternate between the two shapes so that drift in the
	// machine's speed lands on both equally. Each trial is one window.
	var wall, roadWall, cpu, rss, ln, sizeMB windows
	var last built
	start := time.Now()
	for trial := 0; trial < sz.minTrials || time.Since(start).Seconds() < 0.6*cfg.seconds; trial++ {
		b, err := buildIndex(cfg, p2pPath, filepath.Join(cfg.work, "p2p.midx"))
		if err != nil {
			return nil, err
		}
		wall.add(b.wall.Seconds())
		cpu.add(b.cpu.Seconds())
		rss.add(b.rssMB)
		ln.add(b.ln)
		sizeMB.add(b.sizeMB)
		last = b

		rb, err := buildIndex(cfg, roadPath, filepath.Join(cfg.work, "road.midx"))
		if err != nil {
			return nil, err
		}
		roadWall.add(rb.wall.Seconds())

		// Untimed: every output is opened, verified and compared with
		// Dijkstra.
		if err := checkIndexFile(res, b.outPath, p2pOracle, 1000, rng); err != nil {
			return nil, err
		}
		if err := checkIndexFile(res, rb.outPath, roadOracle, 1000, rng); err != nil {
			return nil, err
		}
	}

	// The last p2p index, served: uniform point queries beyond the cache.
	c := newClient()
	defer c.close()
	pairs := uniformPairs(p2pOracle, 1, rng)
	srv, err := coldStart(cfg, res, c, p2pOracle, pairs[0], "-index", last.outPath)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	served, err := runPhase(pointWindow, sz.minWindows, time.Duration(0.4*cfg.seconds*float64(time.Second)),
		func() error { return c.floor(srv.base) },
		pointWindowOf(c, srv, p2pOracle, res, func() []pair { return uniformPairs(p2pOracle, pointWindow, rng) }))
	if err != nil {
		return nil, err
	}
	srv.stop()

	res.notef("p2p: %s scale %g n=%d m=%d; road: %s scale %g n=%d m=%d; %d trial pairs of parapll-index -threads 2 -order degree -engine perroot -format mmap",
		p2pDataset, sz.p2pScale, p2p.NumVertices(), p2p.NumEdges(),
		roadDataset, sz.roadScale, road.NumVertices(), road.NumEdges(), len(wall.vals))
	res.notef("req = GET /query, uniform pairs, against parapll-server on the last p2p index built; OPTIONS * after every %d requests", floorBlock)
	res.addWindows("setup_s", "s", &setup, 1)
	res.addWindows("rss_mb", "MB", &rss, 1)
	res.addWindows("ln", "count", &ln, 1)
	res.addWindows("index_mb", "MB", &sizeMB, 1)
	served.addRequest(res, "point_p50_us", "server.query_over_floor")
	res.alsoWindows("index_s", "s", &wall, 1)
	res.alsoWindows("index_road_s", "s", &roadWall, 1)
	res.alsoWindows("index_cpu_s", "s", &cpu, 1)
	return res, nil
}
