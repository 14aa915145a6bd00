package compact

// Crash-recovery property tests: the pipeline's durability contract is
// that kill -9 at ANY byte boundary — mid-append, mid-checkpoint,
// mid-truncation — recovers to an index that answers every query
// exactly for the edge set whose records survived as the WAL's
// consistent prefix. These tests simulate the kill by snapshotting the
// directory's files at adversarial cut points and reopening from the
// copies, which is strictly harsher than a real SIGKILL (it also
// explores cuts inside a single write syscall).

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parapll/internal/core"
	"parapll/internal/fileio"
	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/sssp"
	"parapll/internal/wal"
)

// copyState clones selected files of a pipeline dir into a fresh dir,
// cutting wal.log to cutBytes (-1 keeps it whole).
func copyState(t *testing.T, src string, cutBytes int) string {
	t.Helper()
	dst := t.TempDir()
	for _, f := range []string{GraphFile, IndexFile, WALFile} {
		data, err := os.ReadFile(filepath.Join(src, f))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if f == WALFile && cutBytes >= 0 && cutBytes < len(data) {
			data = data[:cutBytes]
		}
		if err := os.WriteFile(filepath.Join(dst, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestCrashReplayAtEveryBoundary applies a batch of updates, then for
// every possible crash point in the WAL file — every whole-record
// boundary AND every torn byte offset inside the final surviving
// record — reopens from that truncated image and checks each queried
// distance equals a from-scratch Dijkstra on base + surviving records.
func TestCrashReplayAtEveryBoundary(t *testing.T) {
	r := rand.New(rand.NewSource(91))
	const n = 20
	base := randomGraph(r, n, 25)
	dir := t.TempDir()
	p, err := Open(Options{Dir: dir, Graph: base})
	if err != nil {
		t.Fatal(err)
	}
	ups := randomInserts(r, n, 8)
	for _, up := range ups {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	whole, err := os.ReadFile(filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	if want := wal.HeaderSize + len(ups)*wal.RecordSize; len(whole) != want {
		t.Fatalf("WAL is %d bytes, want %d", len(whole), want)
	}
	for cut := wal.HeaderSize; cut <= len(whole); cut++ {
		crashDir := copyState(t, dir, cut)
		p2, err := Open(Options{Dir: crashDir, Graph: base})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		survived := (cut - wal.HeaderSize) / wal.RecordSize
		cur := applied(base, ups[:survived])
		for s := graph.Vertex(0); int(s) < n; s++ {
			want := sssp.Dijkstra(cur, s)
			for u := graph.Vertex(0); int(u) < n; u++ {
				if got := p2.Query(s, u); got != want[u] {
					t.Fatalf("cut %d (%d records): query(%d,%d) = %d, want %d",
						cut, survived, s, u, got, want[u])
				}
			}
		}
		p2.Close()
	}
}

// TestCrashBetweenCheckpointSaves reconstructs the nastiest compaction
// crash window by hand: graph.bin already holds the folded graph but
// index.midx is still the index of the PREVIOUS checkpoint, and the WAL
// was never truncated. The stale index only overestimates, and the full
// replay must repair every shortened pair back to exact.
func TestCrashBetweenCheckpointSaves(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	const n = 20
	base := randomGraph(r, n, 25)
	ups := randomInserts(r, n, 12)
	folded := applied(base, ups)

	dir := t.TempDir()
	// The crash left: new graph, old index, full WAL.
	if err := fileio.SaveGraph(fileio.OS, filepath.Join(dir, GraphFile), folded); err != nil {
		t.Fatal(err)
	}
	oldIdx := core.Build(base, core.Options{Threads: 1})
	if err := fileio.SaveIndexAs(filepath.Join(dir, IndexFile), oldIdx, label.FormatMmap); err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := l.Append(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	p, err := Open(Options{Dir: dir, Graph: base})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer p.Close()
	checkAllPairs(t, folded, p)
	// And the next compaction rolls it into a clean matched pair.
	if _, err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	checkAllPairs(t, folded, p)
}

// TestCrashAfterCompactionBoundaries compacts mid-stream and then
// explores crash cuts in the post-compaction WAL: recovery must replay
// the surviving suffix on top of the checkpoint pair.
func TestCrashAfterCompactionBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	const n = 18
	base := randomGraph(r, n, 20)
	dir := t.TempDir()
	p, err := Open(Options{Dir: dir, Graph: base})
	if err != nil {
		t.Fatal(err)
	}
	first := randomInserts(r, n, 6)
	for _, up := range first {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Compact(); err != nil {
		t.Fatal(err)
	}
	second := randomInserts(r, n, 5)
	for _, up := range second {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	whole, err := os.ReadFile(filepath.Join(dir, WALFile))
	if err != nil {
		t.Fatal(err)
	}
	for cut := wal.HeaderSize; cut <= len(whole); cut += 7 { // stride keeps it quick; still hits torn offsets
		crashDir := copyState(t, dir, cut)
		p2, err := Open(Options{Dir: crashDir, Graph: base})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		survived := (cut - wal.HeaderSize) / wal.RecordSize
		cur := applied(base, append(append([]wal.Update{}, first...), second[:survived]...))
		for s := graph.Vertex(0); int(s) < n; s++ {
			want := sssp.Dijkstra(cur, s)
			for u := graph.Vertex(0); int(u) < n; u++ {
				if got := p2.Query(s, u); got != want[u] {
					t.Fatalf("cut %d: query(%d,%d) = %d, want %d", cut, s, u, got, want[u])
				}
			}
		}
		p2.Close()
	}
}

// TestOldBaseOutlivesItsFile: a live index a reader took a reference on
// before a compaction keeps answering from the checkpoint file it mapped
// after two compactions have each renamed a new index.midx over that
// file — the mapping outlives the name, and the reference holds it.
// Every answer lies between the final and the initial distance, and none
// faults.
func TestOldBaseOutlivesItsFile(t *testing.T) {
	r := rand.New(rand.NewSource(96))
	const n = 40
	base := randomGraph(r, n, 50)
	ups := randomInserts(r, n, 12)
	final := applied(base, ups)
	p, err := Open(Options{Dir: t.TempDir(), Graph: base})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	old := p.acquire()
	defer old.Release()
	for _, batch := range [][]wal.Update{ups[:6], ups[6:]} {
		for _, up := range batch {
			if err := p.Update(up.U, up.V, up.W); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	for s := graph.Vertex(0); int(s) < n; s++ {
		initD, finalD := sssp.Dijkstra(base, s), sssp.Dijkstra(final, s)
		for u := graph.Vertex(0); int(u) < n; u++ {
			if d := old.Query(s, u); d < finalD[u] || d > initD[u] {
				t.Fatalf("old index: d(%d,%d) = %d, want within [%d, %d]", s, u, d, finalD[u], initD[u])
			}
		}
	}
	checkAllPairs(t, final, p)
}

// TestHammerCompactionUnderQueries runs concurrent readers against a
// pipeline absorbing inserts and swapping its index in both modes: a
// background compaction kicked past DefaultFoldLimit rebuilds, and
// explicit ones over the smaller backlogs after it, every four inserts,
// fold. Each swap leaves the old index's mapped base for its last reader
// to close. Because edge
// inserts only shorten distances and every swap leaves the index exact,
// each reader must observe, per pair, a monotone non-increasing distance
// sequence sandwiched between the final and initial true distances —
// never a stale regression and never an underestimate. Run under -race
// this also proves the lock-free read path sound.
func TestHammerCompactionUnderQueries(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	const n, kick = 60, DefaultFoldLimit + 6
	base := randomGraph(r, n, 80)
	ups := randomInserts(r, n, kick+30)
	final := applied(base, ups)

	type pair struct{ s, t graph.Vertex }
	pairs := make([]pair, 30)
	initD := make([]graph.Dist, len(pairs))
	finalD := make([]graph.Dist, len(pairs))
	for i := range pairs {
		pairs[i] = pair{graph.Vertex(r.Intn(n)), graph.Vertex(r.Intn(n))}
		initD[i] = sssp.Dijkstra(base, pairs[i].s)[pairs[i].t]
		finalD[i] = sssp.Dijkstra(final, pairs[i].s)[pairs[i].t]
	}

	var rebuilt atomic.Bool
	p, err := Open(Options{Dir: t.TempDir(), Graph: base, CompactEvery: kick, OnPublish: func(rep Report) {
		if rep.Mode == "rebuild" {
			rebuilt.Store(true)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := append([]graph.Dist(nil), initD...)
			for {
				select {
				case <-done:
					return
				default:
				}
				for i, pr := range pairs {
					got := p.Query(pr.s, pr.t)
					if got > last[i] {
						errc <- fmt.Errorf("pair (%d,%d) regressed %d -> %d", pr.s, pr.t, last[i], got)
						return
					}
					if got < finalD[i] {
						errc <- fmt.Errorf("pair (%d,%d) underestimated: %d < final %d", pr.s, pr.t, got, finalD[i])
						return
					}
					last[i] = got
				}
			}
		}()
	}
	for i, up := range ups {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
		for i+1 == kick && p.Generation() == 0 {
			time.Sleep(time.Millisecond) // the kicked compaction swaps
		}
		if i+1 > kick && (i+1-kick)%4 == 0 {
			if _, err := p.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	rep, err := p.Compact()
	if err != nil {
		t.Fatal(err)
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if !rebuilt.Load() || rep.Mode != "fold" {
		t.Fatalf("background rebuild %v, explicit compaction %+v: want a rebuild, then a fold", rebuilt.Load(), rep)
	}
	if p.Stats().WALRecords != 0 {
		t.Fatalf("WAL not drained after final compaction: %+v", p.Stats())
	}
	checkAllPairs(t, final, p)
}
