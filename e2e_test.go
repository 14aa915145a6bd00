package parapll_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"parapll/internal/fileio"
	"parapll/internal/gen"
	"parapll/internal/graph"
	"parapll/internal/sssp"
)

// TestEndToEndCLI exercises the full two-stage command pipeline the
// README documents: generate a dataset, index it, query it, verify it
// against Dijkstra — all through the real binaries.
func TestEndToEndCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	bin := func(name string) string { return filepath.Join(dir, name) }
	for _, tool := range []string{"parapll-gen", "parapll-index", "parapll-query", "parapll-node", "parapll-trace"} {
		out, err := exec.Command("go", "build", "-o", bin(tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}

	run := func(name string, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin(name), args...).CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, out)
		}
		return string(out)
	}

	// Stage 0: synthesize a dataset.
	out := run("parapll-gen", "-dataset", "Gnutella", "-scale", "0.02", "-out", dir)
	if !strings.Contains(out, "gnutella.bin") {
		t.Fatalf("gen output unexpected: %s", out)
	}
	graphPath := filepath.Join(dir, "gnutella.bin")

	// Stage 1: index, with no -format: the one format, PIDM.
	idxPath := filepath.Join(dir, "gnutella.idx")
	out = run("parapll-index", "-graph", graphPath, "-out", idxPath, "-threads", "2", "-policy", "dynamic")
	if !strings.Contains(out, "indexed") {
		t.Fatalf("index output unexpected: %s", out)
	}
	if _, err := os.Stat(idxPath); err != nil {
		t.Fatalf("index file missing: %v", err)
	}

	// Stage 2: query + verify against Dijkstra, through a mapping.
	out = run("parapll-query", "-index", idxPath, "-pair", "0,5", "-random", "200")
	if !strings.Contains(out, "d(0,5)") || !strings.Contains(out, "random queries") {
		t.Fatalf("query output unexpected: %s", out)
	}
	if banner := "format=mmap mmap=true"; runtime.GOOS != "windows" && !strings.Contains(out, banner) {
		t.Fatalf("query banner lacks %q: %s", banner, out)
	}
	out = run("parapll-query", "-index", idxPath, "-graph", graphPath, "-verify", "5")
	if !strings.Contains(out, "all exact") {
		t.Fatalf("verify output unexpected: %s", out)
	}

	// A second index of the same graph, -format named as the benchmark
	// names it, for the hot-reload leg.
	midxPath := filepath.Join(dir, "gnutella-v2.idx")
	out = run("parapll-index", "-graph", graphPath, "-out", midxPath, "-format", "mmap", "-threads", "2")
	if !strings.Contains(out, "indexed") {
		t.Fatalf("mmap index output unexpected: %s", out)
	}

	// The HTTP query service over the same index. The listener comes up
	// before the index finishes loading, so gate on /readyz like an
	// orchestrator would, then query.
	if out, err := exec.Command("go", "build", "-o", bin("parapll-server"), "./cmd/parapll-server").CombinedOutput(); err != nil {
		t.Fatalf("building parapll-server: %v\n%s", err, out)
	}
	srv := exec.Command(bin("parapll-server"), "-index", idxPath, "-graph", graphPath, "-addr", "127.0.0.1:18941")
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get("http://127.0.0.1:18941/readyz")
		if err == nil {
			ready := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ready {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %v", err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://127.0.0.1:18941" + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		return string(body)
	}
	if body := get("/query?s=0&t=5"); !strings.Contains(body, `"reachable"`) {
		t.Fatalf("server response unexpected: %s", body)
	}

	// /path over the mapped index and the graph beside it, from vertex 0
	// to the farthest vertex it reaches: a walk over edges of the graph
	// whose weights sum to /query's answer.
	g, err := fileio.LoadGraph(graphPath)
	if err != nil {
		t.Fatal(err)
	}
	far, dist := graph.Vertex(0), sssp.Dijkstra(g, 0)
	for v, d := range dist {
		if d != graph.Inf && d > dist[far] {
			far = graph.Vertex(v)
		}
	}
	if far == 0 {
		t.Fatal("vertex 0 reaches no other vertex")
	}
	checkServedPath(t, g, get, 0, far)

	// Hot-swap to the second artifact without restarting, then confirm the
	// new generation is serving it from its file.
	resp, err := http.Post("http://127.0.0.1:18941/reload", "application/json",
		strings.NewReader(`{"path":"`+midxPath+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	reloadBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d: %s", resp.StatusCode, reloadBody)
	}
	stats := get("/stats")
	if !strings.Contains(stats, `"generation":2`) || !strings.Contains(stats, `"format":"mmap"`) {
		t.Fatalf("stats after reload unexpected: %s", stats)
	}
	if body := get("/query?s=0&t=5"); !strings.Contains(body, `"reachable"`) {
		t.Fatalf("post-reload response unexpected: %s", body)
	}

	// Bonus: a real 2-process TCP cluster via the self-launching node,
	// four sync rounds, each rank tracing its timeline. The child shares
	// the parent's output pipe, so run returns once both ranks have
	// exited and written their captures.
	clusterIdx := filepath.Join(dir, "cluster.idx")
	tracePath := filepath.Join(dir, "cluster.json")
	out = run("parapll-node", "-launch", "-size", "2", "-root", "127.0.0.1:17799",
		"-graph", graphPath, "-out", clusterIdx, "-threads", "1", "-syncs", "4", "-trace", tracePath)
	if !strings.Contains(out, "indexed in") {
		t.Fatalf("node output unexpected: %s", out)
	}
	out = run("parapll-query", "-index", clusterIdx, "-graph", graphPath, "-verify", "5")
	if !strings.Contains(out, "all exact") {
		t.Fatalf("cluster index verify failed: %s", out)
	}
	// Each round, each of the 2 ranks starts one flow and ends the other
	// rank's: 2·2·4 flow events, every one paired across the captures.
	merged := filepath.Join(dir, "cluster-merged.json")
	run("parapll-trace", "merge", "-out", merged,
		filepath.Join(dir, "cluster.rank0.json"), filepath.Join(dir, "cluster.rank1.json"))
	out = run("parapll-trace", "check", merged)
	if !strings.Contains(out, "16 flow edges") || !strings.Contains(out, "pids [0 1]") {
		t.Fatalf("merged cluster trace check unexpected: %s", out)
	}

	// A cluster whose rendezvous port is 0 is refused up front: the
	// children would dial port 0 and never reach rank 0.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin("parapll-node"), "-launch", "-size", "3", "-root", "127.0.0.1:0", "-graph", graphPath)
	cmd.WaitDelay = time.Second // launched children would hold the output pipe
	refused, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("parapll-node -root with port 0 still running after 20s: %s", refused)
	}
	if err == nil || !strings.Contains(string(refused), "rendezvous port") {
		t.Fatalf("parapll-node -root with port 0: err %v: %s", err, refused)
	}
}

// TestGenIntoMissingDir: parapll-gen -out names a directory that does
// not exist yet, two levels deep, as the usage's "-out data/" does on a
// fresh checkout; the tool creates it and writes the graph there.
func TestGenIntoMissingDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "parapll-gen")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/parapll-gen").CombinedOutput(); err != nil {
		t.Fatalf("building parapll-gen: %v\n%s", err, out)
	}
	outDir := filepath.Join(dir, "data", "nested")
	if out, err := exec.Command(bin, "-dataset", "Gnutella", "-scale", "0.02", "-out", outDir).CombinedOutput(); err != nil {
		t.Fatalf("parapll-gen -out %s: %v\n%s", outDir, err, out)
	}
	g, err := fileio.LoadGraph(filepath.Join(outDir, "gnutella.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() == 0 {
		t.Fatal("parapll-gen wrote an empty graph")
	}
}

// checkServedPath asks a running server for /path and /query of (s, u)
// through get and fails unless the path runs from s to u over edges of g
// whose weights sum to the /query distance.
func checkServedPath(t *testing.T, g *graph.Graph, get func(string) string, s, u graph.Vertex) {
	t.Helper()
	var q struct {
		Dist int64 `json:"dist"`
	}
	var p struct {
		Path []graph.Vertex `json:"path"`
		Dist int64          `json:"dist"`
	}
	pair := fmt.Sprintf("?s=%d&t=%d", s, u)
	if err := json.Unmarshal([]byte(get("/query"+pair)), &q); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(get("/path"+pair)), &p); err != nil {
		t.Fatal(err)
	}
	if q.Dist < 0 || p.Dist != q.Dist {
		t.Fatalf("/path%s dist %d, /query %d", pair, p.Dist, q.Dist)
	}
	if len(p.Path) == 0 || p.Path[0] != s || p.Path[len(p.Path)-1] != u {
		t.Fatalf("/path%s = %v: wrong endpoints", pair, p.Path)
	}
	var sum int64
	for i := 1; i < len(p.Path); i++ {
		w, ok := g.HasEdge(p.Path[i-1], p.Path[i])
		if !ok {
			t.Fatalf("/path%s = %v: {%d,%d} is no edge", pair, p.Path, p.Path[i-1], p.Path[i])
		}
		sum += int64(w)
	}
	if sum != q.Dist {
		t.Fatalf("/path%s = %v: weights sum to %d, /query says %d", pair, p.Path, sum, q.Dist)
	}
}

// TestCrashRecoveryE2E exercises the living-graph durability story
// through the real binary: serve with a WAL, acknowledge updates, die
// by SIGKILL, restart from the same directory, and answer every probed
// distance exactly as a from-scratch Dijkstra on base + acknowledged
// updates. The restart boots with -compact-every low enough that the
// replayed backlog triggers a background compaction, so the test also
// covers the checkpoint-roll + rolling-publish leg before a second
// kill/restart proves the checkpoint alone carries the state.
func TestCrashRecoveryE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "parapll-server")
	if out, err := exec.Command("go", "build", "-o", serverBin, "./cmd/parapll-server").CombinedOutput(); err != nil {
		t.Fatalf("building parapll-server: %v\n%s", err, out)
	}

	// A deterministic base graph, written the way parapll-gen would.
	base := gen.ChungLu(120, 320, 2.2, 77)
	graphPath := filepath.Join(dir, "graph.bin")
	if err := fileio.SaveGraph(fileio.OS, graphPath, base); err != nil {
		t.Fatal(err)
	}
	walDir := filepath.Join(dir, "wal")

	const addr = "127.0.0.1:18957"
	url := func(path string) string { return "http://" + addr + path }
	start := func(compactEvery int) *exec.Cmd {
		t.Helper()
		cmd := exec.Command(serverBin, "-graph", graphPath, "-wal", walDir,
			"-addr", addr, "-compact-every", strconv.Itoa(compactEvery))
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := http.Get(url("/readyz"))
			if err == nil {
				ready := resp.StatusCode == http.StatusOK
				resp.Body.Close()
				if ready {
					return cmd
				}
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("server never became ready: %v", err)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	walStats := func() (records int, compactions uint64) {
		t.Helper()
		resp, err := http.Get(url("/stats"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st struct {
			Wal *struct {
				WALRecords  int    `json:"wal_records"`
				Compactions uint64 `json:"compactions_total"`
			} `json:"wal"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Wal == nil {
			t.Fatal("/stats has no wal section in living-graph mode")
		}
		return st.Wal.WALRecords, st.Wal.Compactions
	}
	queryDist := func(s, u graph.Vertex) graph.Dist {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("%s/query?s=%d&t=%d", url(""), s, u))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var q struct {
			Dist int64 `json:"dist"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&q); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query(%d,%d): status %d", s, u, resp.StatusCode)
		}
		if q.Dist < 0 {
			return graph.Inf
		}
		return graph.Dist(q.Dist)
	}

	// Boot 1: no auto compaction, so the kill lands with a full WAL.
	srv := start(0)
	killed := false
	defer func() {
		if !killed {
			srv.Process.Kill()
			srv.Wait()
		}
	}()

	r := rand.New(rand.NewSource(78))
	n := base.NumVertices()
	var ups []graph.Edge
	for len(ups) < 6 {
		u := graph.Vertex(r.Intn(n))
		v := graph.Vertex(r.Intn(n))
		if u == v {
			continue
		}
		e := graph.Edge{U: u, V: v, W: graph.Dist(1 + r.Intn(5))}
		body, _ := json.Marshal(map[string]int64{"u": int64(e.U), "v": int64(e.V), "w": int64(e.W)})
		resp, err := http.Post(url("/update"), "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		ack, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("update %v: status %d: %s", e, resp.StatusCode, ack)
		}
		ups = append(ups, e)
	}
	if recs, _ := walStats(); recs != len(ups) {
		t.Fatalf("pre-crash WAL holds %d records, want %d", recs, len(ups))
	}

	// The from-scratch truth for everything the server acknowledged.
	cur := graph.FromEdges(n, append(base.Edges(), ups...))
	verify := func(tag string) {
		t.Helper()
		for probe := 0; probe < 60; probe++ {
			s := graph.Vertex(r.Intn(n))
			u := graph.Vertex(r.Intn(n))
			if got, want := queryDist(s, u), sssp.Query(cur, s, u); got != want {
				t.Fatalf("%s: d(%d,%d) = %d, want %d", tag, s, u, got, want)
			}
		}
		for _, e := range ups { // the updated pairs themselves, always
			if got, want := queryDist(e.U, e.V), sssp.Query(cur, e.U, e.V); got != want {
				t.Fatalf("%s: updated pair d(%d,%d) = %d, want %d", tag, e.U, e.V, got, want)
			}
		}
	}
	verify("pre-crash")

	// Crash: SIGKILL, no shutdown hooks, no final flush.
	if err := srv.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	srv.Wait()
	killed = true

	// Boot 2: replay must reconstruct the acknowledged state, and the
	// backlog (6 records >= compact-every 3) kicks a boot compaction
	// that rolls it into a fresh checkpoint and republishes.
	srv = start(3)
	killed = false
	verify("post-crash replay")
	waitDeadline := time.Now().Add(30 * time.Second)
	for {
		recs, compactions := walStats()
		if recs == 0 && compactions >= 1 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatalf("boot compaction never drained the WAL (records=%d compactions=%d)", recs, compactions)
		}
		time.Sleep(50 * time.Millisecond)
	}
	verify("post-compaction")

	// Crash again: now the state lives only in the checkpoint pair.
	if err := srv.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	srv.Wait()
	killed = true

	// Boot 3: empty WAL, checkpoint-only recovery.
	srv = start(0)
	killed = false
	if recs, _ := walStats(); recs != 0 {
		t.Fatalf("checkpoint-only boot left %d WAL records", recs)
	}
	verify("post-checkpoint restart")
}

// TestFlightBreachE2E exercises the diagnostics loop through the real
// binaries: start a server with the flight recorder and an absurdly
// tight query-p99 SLO, drive traffic until the watchdog declares a
// breach, and confirm the breach auto-captured a flight bundle that
// `parapll-trace check` accepts. Also spot-checks /debug/explain
// against /query and the slo.* gauges on the Prometheus scrape.
//
// When PARAPLL_E2E_ARTIFACTS is set (CI does this), the flight spool
// lives under it so a failed run's bundles survive as CI artifacts.
func TestFlightBreachE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "parapll-server")
	traceBin := filepath.Join(dir, "parapll-trace")
	for bin, pkg := range map[string]string{serverBin: "./cmd/parapll-server", traceBin: "./cmd/parapll-trace"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	base := gen.ChungLu(120, 320, 2.2, 77)
	graphPath := filepath.Join(dir, "graph.bin")
	if err := fileio.SaveGraph(fileio.OS, graphPath, base); err != nil {
		t.Fatal(err)
	}

	spool := filepath.Join(dir, "flight")
	if art := os.Getenv("PARAPLL_E2E_ARTIFACTS"); art != "" {
		spool = filepath.Join(art, "flight")
	}

	const addr = "127.0.0.1:18963"
	url := func(path string) string { return "http://" + addr + path }
	// -slo-query-p99-us 1: every real request breaches, so two 100ms
	// windows of traffic trip the hysteresis (flight.BreachAfter).
	srv := exec.Command(serverBin,
		"-graph", graphPath, "-addr", addr,
		"-flight", spool,
		"-slo-window-ms", "100", "-slo-query-p99-us", "1")
	srv.Stdout = os.Stderr
	srv.Stderr = os.Stderr
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(url("/readyz"))
		if err == nil {
			ready := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ready {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Drive traffic until the watchdog flips to breach.
	breachDeadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := http.Get(url("/query?s=0&t=5"))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()

		resp, err = http.Get(url("/debug/health"))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Status   string `json:"status"`
			Verdicts []struct {
				Name     string `json:"name"`
				Breached bool   `json:"breached"`
			} `json:"verdicts"`
		}
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Status == "breach" {
			var hit bool
			for _, v := range rep.Verdicts {
				hit = hit || (v.Name == "query_p99" && v.Breached)
			}
			if !hit {
				t.Fatalf("breach without the query_p99 verdict: %+v", rep)
			}
			break
		}
		if time.Now().After(breachDeadline) {
			t.Fatalf("watchdog never breached under forced traffic: %+v", rep)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The breach must have auto-spooled a bundle parapll-trace accepts.
	var bundle string
	bundleDeadline := time.Now().Add(10 * time.Second)
	for {
		names, err := filepath.Glob(filepath.Join(spool, "bundle-*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(names) > 0 {
			bundle = names[len(names)-1]
			break
		}
		if time.Now().After(bundleDeadline) {
			t.Fatal("breach produced no flight bundle in the spool")
		}
		time.Sleep(50 * time.Millisecond)
	}
	out, err := exec.Command(traceBin, "check", bundle).CombinedOutput()
	if err != nil {
		t.Fatalf("parapll-trace check %s: %v\n%s", bundle, err, out)
	}
	if !strings.Contains(string(out), "flight bundle ok") {
		t.Fatalf("check output unexpected: %s", out)
	}

	// /debug/explain answers exactly like /query.
	for _, pair := range [][2]int{{0, 5}, {3, 3}, {7, 100}} {
		q := fmt.Sprintf("?s=%d&t=%d", pair[0], pair[1])
		var qr struct {
			Dist int64 `json:"dist"`
		}
		var ex struct {
			Dist int64  `json:"dist"`
			Algo string `json:"algo"`
		}
		for path, into := range map[string]interface{}{"/query": &qr, "/debug/explain": &ex} {
			resp, err := http.Get(url(path + q))
			if err != nil {
				t.Fatal(err)
			}
			err = json.NewDecoder(resp.Body).Decode(into)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s%s: status %d err %v", path, q, resp.StatusCode, err)
			}
		}
		if qr.Dist != ex.Dist || ex.Algo == "" {
			t.Fatalf("explain%s dist %d (algo %q), query says %d", q, ex.Dist, ex.Algo, qr.Dist)
		}
	}

	// The verdict gauge (with its HELP metadata) is on the scrape.
	req, _ := http.NewRequest(http.MethodGet, url("/metrics"), nil)
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	scrape, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	// No value assertion on the breach gauge: once the forced traffic
	// stops, ClearAfter idle windows stand the alarm down within ~300ms.
	for _, want := range []string{"# HELP slo_breach_query_p99 ", "slo_value_query_p99", "flight_captures_total"} {
		if !strings.Contains(string(scrape), want) {
			t.Fatalf("scrape missing %q:\n%s", want, scrape)
		}
	}

	// On-demand capture over HTTP works too and lands in the spool.
	resp, err = http.Get(url("/debug/bundle"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"reason"`)) {
		t.Fatalf("/debug/bundle: status %d: %.200s", resp.StatusCode, body)
	}
}
