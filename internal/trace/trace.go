// Package trace is a low-overhead span/event recorder for build,
// cluster and serving timelines, exporting the Chrome trace-event JSON
// that Perfetto and chrome://tracing render.
//
// The aggregate metrics layer (internal/metrics) answers "how much";
// this package answers "when, on which worker, overlapping what" — the
// paper's Figure 7 computation/communication breakdown needs timelines,
// not totals, and so does diagnosing a stalled sync round or a slow
// query.
//
// # Memory model
//
// Each thread lane (a build worker, the sync pipeline, a server request
// lane) records into its own bounded ring buffer of fixed-width slots.
// Emission is lock-free: a slot index is claimed with one atomic add,
// the slot's sequence word is swapped from its current value to a busy
// mark (taking the slot from readers and from every other writer), the
// payload words are stored atomically, and the sequence word is
// published last. Readers (the exporter, which may run concurrently
// with emission during a live capture) load the sequence word, load the
// payload, and re-load the sequence word — a changed, busy or zero
// sequence means the slot was mid-write and is skipped. Every access is
// atomic, so the protocol is race-detector-clean, and a torn slot can
// be detected but never observed.
//
// The swap is what makes a lane safe to share. Claims a whole ring
// apart map to the same slot, and on a shared lane a writer can stall
// long enough for the others to lap it; a plain store of the busy mark
// would let both fill the slot at once and publish a mix. Whoever loses
// the swap, or finds a newer event already in the slot, gives its event
// up — the ring was going to overwrite one of the two anyway.
//
// A full ring wraps: the newest event overwrites the oldest and a drop
// counter records the loss, so tracing never blocks or allocates on the
// hot path. The disabled path is a single nil/flag check (see
// BenchmarkEmitDisabled and the build-level overhead benchmark in
// internal/bench); Buf.SpanAlways is the one emission that skips the
// flag, for a lane that is a log in its own right.
package trace

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates event shapes.
type Kind uint8

// Event kinds, mapped to Chrome trace-event phases by the exporter.
const (
	// KindSpan is a complete interval (phase "X"): Ts..Ts+Dur.
	KindSpan Kind = iota + 1
	// KindFlowStart opens a flow arrow (phase "s"); Arg(0) is the flow id.
	KindFlowStart
	// KindFlowEnd terminates a flow arrow (phase "f"); Arg(0) is the
	// flow id it pairs with.
	KindFlowEnd
)

// ID names an interned event name. The zero ID is reserved.
type ID uint32

// Conventional thread-lane ids, shared by the instrumented layers so
// merged timelines stay readable: build workers use their worker index
// (0..p-1) directly.
const (
	// TIDCompact is the background compactor's lane: one compact.run
	// span per compaction (args folded, tail, mode 0=fold/1=rebuild).
	TIDCompact = 981
	// TIDSync is the cluster build's sync lane: each round's record,
	// pack, exchange and merge spans.
	TIDSync = 900
	// TIDRequest is the server's lane of sampled request spans.
	TIDRequest = 1000
	// TIDSlow is the server's lane of slow-request spans, recorded
	// whether or not the tracer is enabled (Buf.SpanAlways).
	TIDSlow = 1001
)

// defaultCapacity is the per-lane ring size when New is given none.
const defaultCapacity = 1 << 14

// slot is one ring entry. All words are atomic so concurrent readers
// are race-free; seq is zero until first written, slotBusy while a
// write is in progress and unique (claim index + 1) once published. The
// struct must never be copied.
type slot struct {
	seq  atomic.Uint64
	meta atomic.Uint64 // kind<<56 | nargs<<48 | name
	ts   atomic.Int64
	dur  atomic.Int64
	a    [4]atomic.Uint64
}

// slotBusy marks a slot whose payload a writer is filling. No claim
// index reaches it.
const slotBusy = ^uint64(0)

// Buf is one thread lane's ring buffer. Multiple goroutines may emit
// into one Buf (slot claims are atomic), though per-goroutine lanes
// give strictly ordered timelines.
type Buf struct {
	tr    *Tracer
	tid   int
	pos   atomic.Uint64
	drops atomic.Uint64
	slots []slot
}

// nameDef is one interned event name plus its argument labels.
type nameDef struct {
	name string
	args []string
}

// Tracer owns the lanes, the time axis and the name table for one process
// (one cluster rank). The zero Tracer is not usable; a nil *Tracer is a
// valid always-disabled recorder for every hot-path method.
type Tracer struct {
	enabled atomic.Bool
	sampleN atomic.Uint64 // 0/1 = every; N = 1 in N
	sampleC atomic.Uint64

	pid      int
	capacity int
	baseMono time.Time // monotonic zero of the Ts axis
	baseWall int64     // wall nanos at baseMono, for cross-capture alignment

	mu       sync.Mutex
	bufs     map[int]*Buf
	names    []nameDef // index = ID-1
	nameIDs  map[string]ID
	procName string
	threads  map[int]string
}

// New returns a disabled tracer for process lane pid (the cluster rank;
// 0 for single-process tools) with the given per-lane ring capacity
// (<= 0 means the 16Ki default; rounded up to a power of two).
func New(pid, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = defaultCapacity
	}
	c := 1
	for c < capacity {
		c <<= 1
	}
	now := time.Now()
	return &Tracer{
		pid:      pid,
		capacity: c,
		baseMono: now,
		baseWall: now.UnixNano(),
		bufs:     make(map[int]*Buf),
		nameIDs:  make(map[string]ID),
		threads:  make(map[int]string),
	}
}

// Enabled reports whether events are being recorded. Safe (and false)
// on a nil tracer — the disabled hot path is this one check.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Enable starts recording.
func (t *Tracer) Enable() { t.enabled.Store(true) }

// Disable stops recording. In-flight emissions may still land.
func (t *Tracer) Disable() { t.enabled.Store(false) }

// SetSample sets the request-sampling rate for Sample: 0 or 1 records
// every request, n > 1 records one in n.
func (t *Tracer) SetSample(n uint64) { t.sampleN.Store(n) }

// Sample reports whether the caller should trace this unit of work
// (e.g. one HTTP request). False on a nil or disabled tracer; otherwise
// one in SetSample's n. Safe for concurrent use.
func (t *Tracer) Sample() bool {
	if !t.Enabled() {
		return false
	}
	n := t.sampleN.Load()
	if n <= 1 {
		return true
	}
	return t.sampleC.Add(1)%n == 1
}

// Now returns the current timestamp on the tracer's time axis
// (nanoseconds since New). 0 on a nil tracer.
func (t *Tracer) Now() int64 {
	if t == nil {
		return 0
	}
	return time.Since(t.baseMono).Nanoseconds()
}

// At maps a time.Time captured with time.Now onto the tracer's axis, so
// a caller that already timed an operation for its stats can emit a
// span with exactly the same endpoints.
func (t *Tracer) At(tm time.Time) int64 {
	if t == nil {
		return 0
	}
	return tm.Sub(t.baseMono).Nanoseconds()
}

// Time maps a timestamp on the tracer's axis back to the instant it
// stands for: the inverse of At.
func (t *Tracer) Time(ts int64) time.Time { return t.baseMono.Add(time.Duration(ts)) }

// Intern registers an event name (idempotent) and returns its ID.
// argNames label the event's Arg slots in exported JSON (up to 4).
// Not for hot paths: intern once at setup, emit by ID.
func (t *Tracer) Intern(name string, argNames ...string) ID {
	if len(argNames) > 4 {
		panic(fmt.Sprintf("trace: event %q has %d arg names; slots hold 4", name, len(argNames)))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.nameIDs[name]; ok {
		return id
	}
	t.names = append(t.names, nameDef{name: name, args: argNames})
	id := ID(len(t.names))
	t.nameIDs[name] = id
	return id
}

// Buf returns the ring buffer for thread lane tid, creating it on
// first use. Not for hot paths: resolve the lane once, emit through it.
func (t *Tracer) Buf(tid int) *Buf {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.bufs[tid]
	if !ok {
		b = &Buf{tr: t, tid: tid, slots: make([]slot, t.capacity)}
		t.bufs[tid] = b
	}
	return b
}

// SetProcessName names this tracer's process track in exported JSON.
func (t *Tracer) SetProcessName(name string) {
	t.mu.Lock()
	t.procName = name
	t.mu.Unlock()
}

// SetThreadName names a thread lane in exported JSON.
func (t *Tracer) SetThreadName(tid int, name string) {
	t.mu.Lock()
	t.threads[tid] = name
	t.mu.Unlock()
}

// Drops sums the events lost to ring wraparound across all lanes.
func (t *Tracer) Drops() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d uint64
	for _, b := range t.bufs {
		d += b.drops.Load()
	}
	return d
}

// emit publishes one event unless b is nil or its tracer disabled, so
// call sites may hold a nil *Buf when tracing is off and skip even the
// flag load.
func (b *Buf) emit(kind Kind, name ID, ts, dur int64, args ...uint64) {
	if b == nil || !b.tr.enabled.Load() {
		return
	}
	b.put(kind, name, ts, dur, args...)
}

// put claims a slot and publishes one event.
func (b *Buf) put(kind Kind, name ID, ts, dur int64, args ...uint64) {
	i := b.pos.Add(1) - 1
	if i >= uint64(len(b.slots)) {
		b.drops.Add(1)
	}
	s := &b.slots[i&uint64(len(b.slots)-1)]
	// Take the slot unless a writer a lap ahead holds it (busy) or has
	// already published into it (a newer sequence); either way this
	// event is the one the wrap loses, and the claim above counted it.
	if cur := s.seq.Load(); cur > i || !s.seq.CompareAndSwap(cur, slotBusy) {
		return
	}
	s.meta.Store(uint64(kind)<<56 | uint64(len(args))<<48 | uint64(name))
	s.ts.Store(ts)
	s.dur.Store(dur)
	for k := range s.a {
		var v uint64
		if k < len(args) {
			v = args[k]
		}
		s.a[k].Store(v)
	}
	s.seq.Store(i + 1)
}

// Span records a complete interval [start, end] (tracer-axis nanos,
// from Tracer.Now or Tracer.At) with up to 4 argument words.
func (b *Buf) Span(name ID, start, end int64, args ...uint64) {
	b.emit(KindSpan, name, start, end-start, args...)
}

// SpanAlways is Span whether or not the tracer is enabled: for a lane
// that is a log in its own right, such as the server's slow requests
// (TIDSlow), rather than a sample of the timeline.
func (b *Buf) SpanAlways(name ID, start, end int64, args ...uint64) {
	b.put(KindSpan, name, start, end-start, args...)
}

// FlowStart opens flow arrow `flow` at ts; the arrow is drawn to every
// FlowEnd with the same id (use a globally unique id per edge source).
func (b *Buf) FlowStart(name ID, ts int64, flow uint64) {
	b.emit(KindFlowStart, name, ts, 0, flow)
}

// FlowEnd terminates flow arrow `flow` at ts.
func (b *Buf) FlowEnd(name ID, ts int64, flow uint64) {
	b.emit(KindFlowEnd, name, ts, 0, flow)
}

// TID returns the lane id this buffer records under.
func (b *Buf) TID() int { return b.tid }

// Drops returns how many events this lane lost to wraparound.
func (b *Buf) Drops() uint64 { return b.drops.Load() }

// Event is one recorded event, decoded from its slot.
type Event struct {
	// Seq is the lane-unique claim sequence (1-based, emission order).
	Seq uint64
	// TID is the thread lane.
	TID int
	// Kind is the event shape.
	Kind Kind
	// Name is the interned event name.
	Name string
	// Ts is nanoseconds since the tracer's base.
	Ts int64
	// Dur is the span length in nanoseconds (0 for non-spans).
	Dur int64
	// Args holds the argument words (labels via the name's Intern call).
	Args []uint64
}

// collect appends every stable slot of b to out. Safe concurrently
// with emitters: a slot mid-write fails its sequence re-check and is
// skipped (one retry, then give up — the writer will have replaced it
// with a newer event anyway).
func (b *Buf) collect(names []nameDef, out []Event) []Event {
	for i := range b.slots {
		s := &b.slots[i]
		for attempt := 0; attempt < 2; attempt++ {
			seq := s.seq.Load()
			if seq == 0 || seq == slotBusy {
				break
			}
			meta := s.meta.Load()
			ts := s.ts.Load()
			dur := s.dur.Load()
			var a [4]uint64
			for k := range s.a {
				a[k] = s.a[k].Load()
			}
			if s.seq.Load() != seq {
				continue // torn read: slot was rewritten underneath us
			}
			nameID := ID(meta & 0xffffffff)
			name := ""
			if nameID >= 1 && int(nameID) <= len(names) {
				name = names[nameID-1].name
			}
			nargs := int(meta >> 48 & 0xff)
			out = append(out, Event{
				Seq:  seq,
				TID:  b.tid,
				Kind: Kind(meta >> 56),
				Name: name,
				Ts:   ts,
				Dur:  dur,
				Args: append([]uint64(nil), a[:nargs]...),
			})
			break
		}
	}
	return out
}

// Events snapshots this lane's recorded events in emission order. Safe
// to call while emitters are running, like Tracer.Events.
func (b *Buf) Events() []Event {
	b.tr.mu.Lock()
	names := b.tr.names
	b.tr.mu.Unlock()
	evs := b.collect(names, nil)
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	return evs
}

// Events snapshots every recorded event across all lanes, ordered by
// timestamp (ties by lane then sequence). Safe to call while emitters
// are running — used by the live-capture endpoint.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	bufs := make([]*Buf, 0, len(t.bufs))
	for _, b := range t.bufs {
		bufs = append(bufs, b)
	}
	names := t.names
	t.mu.Unlock()
	var out []Event
	for _, b := range bufs {
		out = b.collect(names, out)
	}
	sortEvents(out)
	return out
}

// sortEvents orders by (Ts, TID, Seq) so exported files have globally
// and per-lane monotonic timestamps.
func sortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Ts != evs[j].Ts {
			return evs[i].Ts < evs[j].Ts
		}
		if evs[i].TID != evs[j].TID {
			return evs[i].TID < evs[j].TID
		}
		return evs[i].Seq < evs[j].Seq
	})
}
