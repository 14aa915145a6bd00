package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
)

// Merging per-rank captures into one cross-rank timeline. Each capture
// carries base_wall_nanos in otherData — the wall-clock instant of its
// tracer's Ts=0 — so ranks recorded by different processes (or the
// same process with different tracer epochs) land on one shared axis:
// the earliest base becomes the merged origin and every event shifts
// by (base_i - min_base). Flow events keep their ids verbatim, so a
// sender's "s" pairs with the receiver's "f" across processes and
// Perfetto draws the comm arrow.

// MergeCaptures joins parsed per-rank captures into one document.
// Events keep their pid (rank); timestamps are re-based onto the
// earliest capture's epoch. Returns the merged JSON.
func MergeCaptures(captures [][]byte) ([]byte, error) {
	if len(captures) == 0 {
		return nil, fmt.Errorf("trace: no captures to merge")
	}
	parsed := make([]jsonCapture, len(captures))
	bases := make([]int64, len(captures))
	var minBase int64
	for i, data := range captures {
		if err := json.Unmarshal(data, &parsed[i]); err != nil {
			return nil, fmt.Errorf("trace: capture %d: %w", i, err)
		}
		if parsed[i].TraceEvents == nil {
			return nil, fmt.Errorf("trace: capture %d has no traceEvents array", i)
		}
		if parsed[i].OtherData != nil && parsed[i].OtherData.BaseWallNanos != "" {
			b, err := strconv.ParseInt(parsed[i].OtherData.BaseWallNanos, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: capture %d: bad base_wall_nanos: %w", i, err)
			}
			bases[i] = b
		}
		if i == 0 || (bases[i] != 0 && (minBase == 0 || bases[i] < minBase)) {
			minBase = bases[i]
		}
	}
	var out jsonCapture
	out.DisplayTimeUnit = "ms"
	var drops uint64
	for i := range parsed {
		shift := 0.0
		if bases[i] != 0 && minBase != 0 {
			shift = float64(bases[i]-minBase) / 1e3 // nanos → µs
		}
		for _, ev := range parsed[i].TraceEvents {
			if ev.Ph != "M" { // metadata rows are timeless
				ev.Ts += shift
			}
			out.TraceEvents = append(out.TraceEvents, ev)
		}
		if od := parsed[i].OtherData; od != nil {
			drops += od.Drops
		}
	}
	// Keep metadata first, then time order, so checkers see monotonic
	// streams per lane and viewers get names before events.
	sort.SliceStable(out.TraceEvents, func(a, b int) bool {
		ea, eb := out.TraceEvents[a], out.TraceEvents[b]
		ma, mb := ea.Ph == "M", eb.Ph == "M"
		if ma != mb {
			return ma
		}
		if ma {
			return false // stable keeps per-capture metadata order
		}
		if ea.Ts != eb.Ts {
			return ea.Ts < eb.Ts
		}
		if ea.Pid != eb.Pid {
			return ea.Pid < eb.Pid
		}
		return ea.Tid < eb.Tid
	})
	out.OtherData = &captureMeta{
		BaseWallNanos: strconv.FormatInt(minBase, 10),
		Drops:         drops,
	}
	return json.MarshalIndent(out, "", " ")
}

// MergeFiles reads per-rank capture files and writes the merged
// timeline to outPath.
func MergeFiles(outPath string, inPaths []string) error {
	captures := make([][]byte, len(inPaths))
	for i, p := range inPaths {
		data, err := os.ReadFile(p)
		if err != nil {
			return fmt.Errorf("trace: read %s: %w", p, err)
		}
		captures[i] = data
	}
	merged, err := MergeCaptures(captures)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, merged, 0o644)
}
