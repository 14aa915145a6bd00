package compact

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parapll/internal/graph"
	"parapll/internal/sssp"
	"parapll/internal/wal"
)

// TestCloseLeavesNoGoroutine: Close stops the background compactor,
// whether the pipeline is idle or a background compaction is in flight
// when Close is called; in the second case Close returns only after the
// compaction has, and nothing the pipeline started is left running.
func TestCloseLeavesNoGoroutine(t *testing.T) {
	leakCheck(t)
	r := rand.New(rand.NewSource(71))
	base := randomGraph(r, 40, 60)

	idle, err := Open(Options{Dir: t.TempDir(), Graph: base})
	if err != nil {
		t.Fatal(err)
	}
	if err := idle.Close(); err != nil {
		t.Fatal(err)
	}

	// OnPublish runs inside the compaction, so holding it holds the
	// compaction in flight.
	inFlight, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	p, err := Open(Options{Dir: t.TempDir(), Graph: base, CompactEvery: 4, OnPublish: func(Report) {
		once.Do(func() { close(inFlight); <-release })
	}})
	if err != nil {
		t.Fatal(err)
	}
	ups := randomInserts(r, 40, 4)
	for _, up := range ups {
		if err := p.Update(up.U, up.V, up.W); err != nil {
			t.Fatal(err)
		}
	}
	<-inFlight
	closed := make(chan error)
	go func() { closed <- p.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while a compaction was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if g := p.Generation(); g != 1 {
		t.Fatalf("generation %d after the one background compaction", g)
	}
}

// TestPipelineHammer drives every entry point of one pipeline at once —
// several Update writers, a loop of explicit Compact calls, Stats
// pollers, readers, and background compactions — then closes it, the
// load and the Close each under a wall-clock deadline. The pipeline's
// mutexes nest in one order: compactMu, then the writer mutex, then the
// WAL's (which holds the OnFsync observer). A path that takes two of
// them the other way round deadlocks here, and the deadline fails the
// test with every goroutine's stack. The first kick comes at a backlog above DefaultFoldLimit, so
// that background compaction rebuilds while the writers go on; the
// explicit ones, on the small backlogs their loop leaves, fold. Readers
// hold every answer between the final and the initial distance, never
// rising, and the pipeline ends exact.
func TestPipelineHammer(t *testing.T) {
	leakCheck(t)
	const (
		n        = 80
		kick     = DefaultFoldLimit + 8
		folds    = 3 // explicit compactions with records to fold
		deadline = 60 * time.Second
	)
	r := rand.New(rand.NewSource(97))
	base := randomGraph(r, n, 120)
	ups := randomInserts(r, n, 400)
	all := applied(base, ups)
	src := make([]graph.Vertex, 8)
	initD := make([][]graph.Dist, len(src))
	allD := make([][]graph.Dist, len(src))
	for i := range src {
		src[i] = graph.Vertex(r.Intn(n))
		initD[i] = sssp.Dijkstra(base, src[i])
		allD[i] = sssp.Dijkstra(all, src[i])
	}

	var mu sync.Mutex
	modes := map[string]int{}
	var fsyncs atomic.Int64
	p, err := Open(Options{
		Dir: t.TempDir(), Graph: base, CompactEvery: kick,
		OnPublish: func(rep Report) { mu.Lock(); modes[rep.Mode]++; mu.Unlock() },
		OnFsync:   func(time.Duration) { fsyncs.Add(1) },
	})
	if err != nil {
		t.Fatal(err)
	}

	h := &hammer{t: t, p: p, ups: ups}
	within(t, deadline, func() { h.run(kick, folds, src, initD, allD) })
	if !t.Failed() {
		checkAllPairs(t, applied(base, ups[:h.next.Load()]), p)
	}
	within(t, deadline, func() {
		if err := p.Close(); err != nil {
			t.Error(err)
		}
	})
	if modes["fold"] == 0 || modes["rebuild"] == 0 {
		t.Errorf("compactions by mode %v, want folds and rebuilds", modes)
	}
	if got, want := fsyncs.Load(), h.next.Load(); got != want {
		t.Errorf("OnFsync saw %d fsyncs for %d updates", got, want)
	}
}

// within runs f on a goroutine of its own and fails t with every
// goroutine's stack if f has not returned after d: a deadlock shows
// where each of its goroutines waits.
func within(t *testing.T, d time.Duration, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		buf := make([]byte, 1<<20)
		t.Fatalf("not done in %s; every goroutine:\n%s", d, buf[:runtime.Stack(buf, true)])
	}
}

// hammer is TestPipelineHammer's load. Writers claim ups in order, so
// the records applied are always ups[:next].
type hammer struct {
	t     *testing.T
	p     *Pipeline
	ups   []wal.Update
	next  atomic.Int64 // the first unclaimed record
	folds atomic.Int64 // explicit compactions that folded records
}

// run drives two phases: writers alone past the kick, so the background
// compaction it starts rebuilds beside them; then writers beside the
// explicit Compact loop, which they leave a small backlog to fold, until
// it has folded records `folds` times. Readers (checking against allD,
// the distances with every record of ups in) and Stats pollers run
// throughout. A last Compact drains the WAL.
func (h *hammer) run(kick int, folds int64, src []graph.Vertex, initD, allD [][]graph.Dist) {
	t, p := h.t, h.p
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for g := 0; g < 3; g++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			last := make([][]graph.Dist, len(src))
			for i := range src {
				last[i] = append([]graph.Dist(nil), initD[i]...)
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, s := range src {
					for v := range last[i] {
						got := p.Query(s, graph.Vertex(v))
						if got > last[i][v] || got < allD[i][v] {
							t.Errorf("query(%d,%d) = %d after %d, with every record %d", s, v, got, last[i][v], allD[i][v])
							return
						}
						last[i][v] = got
					}
				}
				runtime.Gosched()
			}
		}()
	}
	for g := 0; g < 2; g++ {
		bg.Add(1)
		go func() {
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st := p.Stats(); st.WALFailed != "" {
					t.Errorf("wal failed: %s", st.WALFailed)
					return
				}
				runtime.Gosched()
			}
		}()
	}

	h.write(func() bool { return h.next.Load() >= int64(kick+kick/2) })
	for p.Generation() == 0 && !t.Failed() {
		time.Sleep(time.Millisecond)
	}
	writing := make(chan struct{})
	var explicit sync.WaitGroup
	explicit.Add(1)
	go func() {
		defer explicit.Done()
		for {
			select {
			case <-writing:
				return
			default:
			}
			rep, err := p.Compact()
			if err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
			if rep.Mode != "" {
				h.folds.Add(1)
			} else {
				runtime.Gosched() // an empty WAL: let the writers in
			}
		}
	}()
	h.write(func() bool {
		// Leave the loop records to fold, not a backlog that kicks.
		for p.Stats().WALRecords >= 16 && h.folds.Load() < folds && !t.Failed() {
			runtime.Gosched()
		}
		return h.folds.Load() >= folds
	})
	close(writing)
	explicit.Wait()
	close(stop)
	bg.Wait()
	if _, err := p.Compact(); err != nil {
		t.Errorf("final Compact: %v", err)
	}
}

// write runs four writers that claim and apply records until done says
// so, a test error stops them, or the records run out.
func (h *hammer) write(done func() bool) {
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done() && !h.t.Failed() {
				i := h.next.Add(1) - 1
				if i >= int64(len(h.ups)) {
					h.next.Store(int64(len(h.ups)))
					return
				}
				up := h.ups[i]
				if err := h.p.Update(up.U, up.V, up.W); err != nil {
					h.t.Errorf("Update: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
