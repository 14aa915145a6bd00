package cluster

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"time"

	"parapll/internal/graph"
	"parapll/internal/label"
	"parapll/internal/mpi"
	"parapll/internal/trace"
)

// Sync wire format (version 3). A frame carries one node's
// pending-update list for one round, sorted by (vertex, hub) and
// delta-encoded with uvarints: sorted hub ids are small gaps apart, and
// most distances are small too:
//
//	byte    version (3)
//	uvarint rank   (sender's rank — trace word)
//	uvarint round  (0-based sync round — trace word)
//	uvarint total update count U
//	then groups, vertices strictly ascending:
//	  uvarint vGap   = v - prevV - 1        (prevV starts at -1)
//	  uvarint count  (>= 1 entries in this group)
//	  count entries, hubs strictly ascending within the group:
//	    uvarint hubGap = hub - prevHub - 1  (prevHub resets to -1 per group)
//	    uvarint dist                        (must be < graph.Inf)
//
// The two header uvarints are the trace-context word: they cost 2
// bytes per frame (both small), and they let the receiver (a) verify
// the frame really came from the allgather slot it arrived in and
// belongs to the current round, and (b) reconstruct the sender's flow
// id so per-rank trace captures merge into one cross-rank timeline with
// comm edges (internal/trace). No logical clock rides along: every
// round is one collective, so the round number already orders every
// frame, and the merge aligns captures on their wall-clock bases.
//
// Sorting makes consecutive updates share a vertex, so the gaps are
// small (1–2 bytes each vs. the old fixed 12 bytes per update) and the
// receiving side's BulkAppend grouping actually amortizes: one lock
// acquisition per (vertex, round) instead of per label.
//
// (v, hub) pairs are unique within a node's whole build — each root is
// processed exactly once — so both delta chains are strictly increasing.
const syncFormatVersion = 3

// maxFrameWord bounds the decoded rank and round header words: both
// are small integers in any real deployment, so anything larger is a
// corrupt frame, caught before the values reach slice indexing.
const maxFrameWord = 1 << 20

// frameHeader is the decoded trace-context word of one sync frame.
type frameHeader struct {
	rank  int // sender's rank
	round int // 0-based sync round
}

// flowID is the globally-unique id of one rank's frame in one round.
// The sender stamps its pack span's flow start with it; every receiver
// reconstructs it from the decoded header, so merged per-rank captures
// pair each send with its receives (internal/trace flow events).
func flowID(rank, round int) uint64 {
	return uint64(rank)<<32 | uint64(uint32(round))
}

// sortUpdates orders a pending list by (vertex, hub), the precondition
// for packUpdates' delta encoding.
func sortUpdates(list []update) {
	sort.Slice(list, func(i, j int) bool {
		if list[i].v != list[j].v {
			return list[i].v < list[j].v
		}
		return list[i].hub < list[j].hub
	})
}

// packUpdates encodes a sorted pending list into dst[:0] and returns
// the frame. dst is a per-node scratch buffer reused across rounds so
// the varint append never reallocates after the first round; callers
// must copy the result before handing it to a transport (transports own
// sent buffers — the channel transport delivers them zero-copy).
func packUpdates(dst []byte, list []update, hdr frameHeader) []byte {
	buf := append(dst[:0], syncFormatVersion)
	buf = binary.AppendUvarint(buf, uint64(hdr.rank))
	buf = binary.AppendUvarint(buf, uint64(hdr.round))
	buf = binary.AppendUvarint(buf, uint64(len(list)))
	prevV := int64(-1)
	for i := 0; i < len(list); {
		j := i
		for j < len(list) && list[j].v == list[i].v {
			j++
		}
		v := int64(list[i].v)
		buf = binary.AppendUvarint(buf, uint64(v-prevV-1))
		buf = binary.AppendUvarint(buf, uint64(j-i))
		prevV = v
		prevHub := int64(-1)
		for ; i < j; i++ {
			hub := int64(list[i].hub)
			buf = binary.AppendUvarint(buf, uint64(hub-prevHub-1))
			buf = binary.AppendUvarint(buf, uint64(list[i].d))
			prevHub = hub
		}
	}
	return buf
}

// decodeFrame validates and decodes one sync frame from a peer for an
// n-vertex graph, returning the trace-context header and the updates.
// Every structural invariant is checked — truncation, version, header
// word bounds, vertex/hub ranges, group counts, trailing bytes — and
// every distance must be < graph.Inf: a corrupt or hostile frame must
// never inject the unreachable sentinel (or an overflowing value) into
// AddDist arithmetic. The returned list is sorted by (v, hub) by
// construction.
func decodeFrame(buf []byte, n int) (frameHeader, []update, error) {
	var hdr frameHeader
	if len(buf) < 4 {
		return hdr, nil, fmt.Errorf("cluster: sync frame truncated (%d bytes)", len(buf))
	}
	if buf[0] != syncFormatVersion {
		return hdr, nil, fmt.Errorf("cluster: unknown sync frame version %d", buf[0])
	}
	o := 1
	rank, k := binary.Uvarint(buf[o:])
	if k <= 0 || rank > maxFrameWord {
		return hdr, nil, fmt.Errorf("cluster: sync frame: bad rank word")
	}
	o += k
	round, k := binary.Uvarint(buf[o:])
	if k <= 0 || round > maxFrameWord {
		return hdr, nil, fmt.Errorf("cluster: sync frame: bad round word")
	}
	o += k
	hdr = frameHeader{rank: int(rank), round: int(round)}
	total, k := binary.Uvarint(buf[o:])
	if k <= 0 {
		return hdr, nil, fmt.Errorf("cluster: sync frame: bad update count")
	}
	o += k
	// Each update costs at least 2 encoded bytes, so a count claiming
	// more is corrupt — and this bounds the allocation below.
	if total > uint64(len(buf))/2 {
		return hdr, nil, fmt.Errorf("cluster: sync frame claims %d updates in %d bytes", total, len(buf))
	}
	out := make([]update, 0, total)
	prevV := int64(-1)
	for uint64(len(out)) < total {
		vGap, k := binary.Uvarint(buf[o:])
		if k <= 0 {
			return hdr, nil, fmt.Errorf("cluster: sync frame truncated in vertex gap")
		}
		o += k
		if vGap >= uint64(n) {
			return hdr, nil, fmt.Errorf("cluster: sync update vertex out of range (gap %d)", vGap)
		}
		v := prevV + 1 + int64(vGap)
		if v >= int64(n) {
			return hdr, nil, fmt.Errorf("cluster: sync update vertex %d out of range [0,%d)", v, n)
		}
		count, k := binary.Uvarint(buf[o:])
		if k <= 0 {
			return hdr, nil, fmt.Errorf("cluster: sync frame truncated in group count")
		}
		o += k
		if count == 0 || count > total-uint64(len(out)) {
			return hdr, nil, fmt.Errorf("cluster: sync frame group count %d inconsistent with total %d", count, total)
		}
		prevHub := int64(-1)
		for i := uint64(0); i < count; i++ {
			hubGap, k := binary.Uvarint(buf[o:])
			if k <= 0 {
				return hdr, nil, fmt.Errorf("cluster: sync frame truncated in hub gap")
			}
			o += k
			if hubGap >= uint64(n) {
				return hdr, nil, fmt.Errorf("cluster: sync update hub out of range (gap %d)", hubGap)
			}
			hub := prevHub + 1 + int64(hubGap)
			if hub >= int64(n) {
				return hdr, nil, fmt.Errorf("cluster: sync update hub %d out of range [0,%d)", hub, n)
			}
			prevHub = hub
			d, k := binary.Uvarint(buf[o:])
			if k <= 0 {
				return hdr, nil, fmt.Errorf("cluster: sync frame truncated in distance")
			}
			o += k
			if d >= uint64(graph.Inf) {
				return hdr, nil, fmt.Errorf("cluster: sync update distance %d >= Inf", d)
			}
			out = append(out, update{v: graph.Vertex(v), hub: graph.Vertex(hub), d: graph.Dist(d)})
		}
		prevV = v
	}
	if o != len(buf) {
		return hdr, nil, fmt.Errorf("cluster: sync frame has %d trailing bytes", len(buf)-o)
	}
	return hdr, out, nil
}

// mergeShardMin is the round size below which the sharded merge falls
// back to serial: spawning goroutines costs more than merging a few
// hundred updates.
const mergeShardMin = 1 << 10

// mergeShards applies decoded update lists to the store with vertices
// sharded across goroutines: shard s owns the contiguous vertex range
// [s·n/shards, (s+1)·n/shards). Lists are sorted by vertex, so each
// shard binary-searches straight to its subrange — no shard ever scans
// another shard's updates — and because the ranges are disjoint, no two
// goroutines contend on one vertex's mutex and each group still lands
// in a single BulkAppend.
func mergeShards(store *label.Store, lists [][]update, shards int) {
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	n := store.NumVertices()
	if shards < 1 || total < mergeShardMin {
		shards = 1
	}
	if shards == 1 {
		var scratch []label.Entry
		for _, l := range lists {
			scratch = mergeRange(store, l, 0, graph.Vertex(n), scratch)
		}
		return
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lo := graph.Vertex(s * n / shards)
			hi := graph.Vertex((s + 1) * n / shards)
			var scratch []label.Entry
			for _, l := range lists {
				scratch = mergeRange(store, l, lo, hi, scratch)
			}
		}(s)
	}
	wg.Wait()
}

// mergeRange bulk-appends the groups of a sorted list whose vertex
// falls in [lo, hi). scratch is reused across groups (BulkAppend copies
// entries).
func mergeRange(store *label.Store, list []update, lo, hi graph.Vertex, scratch []label.Entry) []label.Entry {
	i := sort.Search(len(list), func(k int) bool { return list[k].v >= lo })
	for i < len(list) && list[i].v < hi {
		j := i
		v := list[i].v
		for j < len(list) && list[j].v == v {
			j++
		}
		scratch = scratch[:0]
		for k := i; k < j; k++ {
			scratch = append(scratch, label.Entry{Hub: list[k].hub, D: list[k].d})
		}
		store.BulkAppend(v, scratch)
		i = j
	}
	return scratch
}

// mergeFrame decodes one peer frame and merges it, returning how many
// updates it carried. The direct path used by tests and by callers that
// hold a single frame.
func mergeFrame(store *label.Store, buf []byte, n, shards int) (int64, error) {
	_, upd, err := decodeFrame(buf, n)
	if err != nil {
		return 0, err
	}
	mergeShards(store, [][]update{upd}, shards)
	return int64(len(upd)), nil
}

// syncState drives the sync pipeline for one node: record → pack →
// exchange → merge. Scratch buffers persist across rounds.
type syncState struct {
	comm   mpi.Comm
	n      int      // vertex count, for frame validation
	shards int      // merge parallelism (the node's worker count)
	take   []update // drained pending updates, reused each round
	pack   []byte   // varint encode scratch, reused each round
	round  int      // next sync round (0-based), stamped into frame headers

	// Tracing (a nil lane when the tracer is nil or disabled at Build
	// start): every round's record, pack, exchange and merge spans.
	tr         *trace.Tracer
	lane       *trace.Buf
	idRecord   trace.ID
	idPack     trace.ID
	idExchange trace.ID
	idMerge    trace.ID
	idFrame    trace.ID
}

// initTrace attaches the tracer's sync lane. Called once, before the
// first round, and only when tr is enabled.
func (st *syncState) initTrace(tr *trace.Tracer) {
	st.tr = tr
	st.lane = tr.Buf(trace.TIDSync)
	tr.SetThreadName(trace.TIDSync, "sync")
	st.idRecord = tr.Intern("sync record", "round", "updates")
	st.idPack = tr.Intern("sync pack", "round", "bytes")
	st.idExchange = tr.Intern("sync exchange", "round", "peers")
	st.idMerge = tr.Intern("sync merge", "round", "updates")
	st.idFrame = tr.Intern("sync frame")
}

// run performs one sync round on the build goroutine, between segments:
// it drains the pending lists, packs them, allgathers the frames,
// decodes every peer frame in parallel and merges them with vertex
// sharding.
//
// Each peer's decoded header is verified against the allgather slot it
// arrived in and the current round — a frame routed to the wrong rank
// or surviving from a previous round is a transport bug worth failing
// loudly on — and its flow id pairs this rank's merge with the
// sender's pack span in merged timelines.
//
// Timing: the record span covers drain+sort, the pack span the varint
// encode; RoundStats.PackTime is their sum, taken from the same
// time.Time endpoints the spans use, so spans and Stats agree exactly.
func (st *syncState) run(rs *recordingStore) (RoundStats, error) {
	round := st.round
	st.round++
	t0 := time.Now()
	st.take = rs.takePending(st.take)
	list := st.take
	sortUpdates(list)
	t1 := time.Now()
	rank := st.comm.Rank()
	st.pack = packUpdates(st.pack, list, frameHeader{rank: rank, round: round})
	// The transport owns sent buffers (the channel transport delivers
	// zero-copy), so the reusable scratch must not escape: hand it an
	// exact-size copy.
	frame := make([]byte, len(st.pack))
	copy(frame, st.pack)
	t2 := time.Now()
	if st.lane != nil {
		st.lane.Span(st.idRecord, st.tr.At(t0), st.tr.At(t1), uint64(round), uint64(len(list)))
		st.lane.Span(st.idPack, st.tr.At(t1), st.tr.At(t2), uint64(round), uint64(len(frame)))
		st.lane.FlowStart(st.idFrame, st.tr.At(t2), flowID(rank, round))
	}
	out := RoundStats{
		UpdatesSent: int64(len(list)),
		BytesSent:   int64(len(frame)),
		PackTime:    t2.Sub(t0),
	}

	parts, err := mpi.Allgather(st.comm, frame)
	tX := time.Now()
	out.ExchangeTime = tX.Sub(t2)
	if err != nil {
		return out, fmt.Errorf("cluster: sync: %w", err)
	}
	if st.lane != nil {
		st.lane.Span(st.idExchange, st.tr.At(t2), st.tr.At(tX), uint64(round), uint64(len(parts)-1))
	}
	decoded := make([][]update, len(parts))
	hdrs := make([]frameHeader, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for r, p := range parts {
		if r == rank {
			continue
		}
		wg.Add(1)
		go func(r int, p []byte) {
			defer wg.Done()
			hdrs[r], decoded[r], errs[r] = decodeFrame(p, st.n)
			if errs[r] != nil {
				errs[r] = fmt.Errorf("cluster: merging from rank %d: %w", r, errs[r])
			}
		}(r, p)
	}
	wg.Wait()
	lists := make([][]update, 0, len(parts)-1)
	for r := range decoded {
		if errs[r] != nil {
			return out, errs[r]
		}
		if r == rank {
			continue
		}
		if hdrs[r].rank != r {
			return out, fmt.Errorf("cluster: frame in allgather slot %d claims rank %d", r, hdrs[r].rank)
		}
		if hdrs[r].round != round {
			return out, fmt.Errorf("cluster: rank %d sent a frame for round %d during round %d", r, hdrs[r].round, round)
		}
		if st.lane != nil {
			st.lane.FlowEnd(st.idFrame, st.tr.At(tX), flowID(r, round))
		}
		out.UpdatesReceived += int64(len(decoded[r]))
		out.BytesReceived += int64(len(parts[r]))
		lists = append(lists, decoded[r])
	}
	mergeShards(rs.Store, lists, st.shards)
	tM := time.Now()
	out.MergeTime = tM.Sub(tX)
	if st.lane != nil {
		st.lane.Span(st.idMerge, st.tr.At(tX), st.tr.At(tM), uint64(round), uint64(out.UpdatesReceived))
	}
	return out, nil
}

// addRound folds one finished round into the node's totals.
func (s *Stats) addRound(r RoundStats) {
	s.Rounds = append(s.Rounds, r)
	s.Syncs++
	s.BytesSent += r.BytesSent
	s.BytesReceived += r.BytesReceived
}
