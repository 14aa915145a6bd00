package cluster

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"parapll/internal/graph"
)

// fuzzFrameN is the vertex count the seed frames are encoded against.
const fuzzFrameN = 64

func seedFrames() [][]byte {
	lists := [][]update{
		{},
		{{v: 0, hub: 1, d: 5}},
		{{v: 0, hub: 1, d: 5}, {v: 0, hub: 3, d: 9}, {v: 2, hub: 0, d: 7}},
		{{v: 63, hub: 62, d: 1 << 30}},
	}
	hdrs := []frameHeader{
		{},
		{rank: 1, round: 0},
		{rank: 3, round: 7},
		{rank: maxFrameWord, round: maxFrameWord},
	}
	var frames [][]byte
	for i, list := range lists {
		sortUpdates(list)
		frames = append(frames, packUpdates(nil, list, hdrs[i%len(hdrs)]))
	}
	// Structurally broken variants: wrong version, bare header, empty.
	frames = append(frames, []byte{}, []byte{99, 0}, []byte{syncFormatVersion})
	return frames
}

// FuzzDecodeFrame drives the hardened varint sync-frame decoder with
// arbitrary bytes. Whatever the input, it must not panic or
// over-allocate, and any frame it accepts must satisfy the decoder's
// documented postconditions: strictly increasing (v, hub), all vertices
// and hubs in range, all distances finite, and a decode→encode→decode
// round trip that reproduces the same update list.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame, fuzzFrameN)
	}
	f.Fuzz(func(t *testing.T, buf []byte, n int) {
		hdr, list, err := decodeFrame(buf, n)
		if err != nil {
			return
		}
		if hdr.rank < 0 || hdr.rank > maxFrameWord || hdr.round < 0 || hdr.round > maxFrameWord {
			t.Fatalf("header words out of bounds: %+v", hdr)
		}
		prevV, prevHub := int64(-1), int64(-1)
		for _, u := range list {
			if int64(u.v) < 0 || int64(u.v) >= int64(n) {
				t.Fatalf("vertex %d out of range [0,%d)", u.v, n)
			}
			if int64(u.hub) < 0 || int64(u.hub) >= int64(n) {
				t.Fatalf("hub %d out of range [0,%d)", u.hub, n)
			}
			if u.d >= graph.Inf {
				t.Fatalf("non-finite distance %d accepted", u.d)
			}
			if int64(u.v) < prevV || (int64(u.v) == prevV && int64(u.hub) <= prevHub) {
				t.Fatalf("updates not strictly (v,hub)-sorted at v=%d hub=%d", u.v, u.hub)
			}
			if int64(u.v) != prevV {
				prevHub = -1
			}
			prevV, prevHub = int64(u.v), int64(u.hub)
		}
		// Canonical re-encoding must decode to the identical header and
		// list (the raw bytes may differ: Uvarint accepts non-minimal
		// varints).
		re := packUpdates(nil, list, hdr)
		backHdr, back, err := decodeFrame(re, n)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if backHdr != hdr {
			t.Fatalf("round trip changed header: %+v != %+v", backHdr, hdr)
		}
		if len(back) != len(list) {
			t.Fatalf("round trip changed length: %d != %d", len(back), len(list))
		}
		for i := range back {
			if back[i] != list[i] {
				t.Fatalf("round trip changed update %d: %+v != %+v", i, back[i], list[i])
			}
		}
	})
}

// TestRegenFuzzCorpus writes the seed frames as go-fuzz corpus files
// under testdata/fuzz/FuzzDecodeFrame. It is a no-op unless
// PARAPLL_REGEN_CORPUS=1, and exists so the checked-in corpus is
// reproducible from the encoder rather than hand-maintained hex.
func TestRegenFuzzCorpus(t *testing.T) {
	if os.Getenv("PARAPLL_REGEN_CORPUS") != "1" {
		t.Skip("set PARAPLL_REGEN_CORPUS=1 to rewrite testdata/fuzz")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzDecodeFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, frame := range seedFrames() {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nint(%d)\n", frame, fuzzFrameN)
		name := filepath.Join(dir, fmt.Sprintf("seed-frame-%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
