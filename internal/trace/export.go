package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
)

// The exporter writes the Chrome trace-event JSON object format:
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
// — the dialect both Perfetto (ui.perfetto.dev) and chrome://tracing
// load directly. Timestamps are microseconds as floats (sub-µs kept as
// fractions); spans are "X" complete events; comm edges are "s"/"f"
// flow events paired by id across processes (ranks).

// jsonEvent is one traceEvents entry.
type jsonEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// captureMeta rides in otherData: everything the merge tool needs to
// align captures from different processes.
type captureMeta struct {
	Pid int `json:"pid"`
	// BaseWallNanos is the wall clock at the tracer's Ts=0, as a string
	// (nanos since epoch exceed JSON's exact-integer range).
	BaseWallNanos string `json:"base_wall_nanos"`
	// Drops counts events lost to ring wraparound.
	Drops uint64 `json:"drops"`
}

// jsonCapture is the top-level object.
type jsonCapture struct {
	TraceEvents     []jsonEvent  `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit,omitempty"`
	OtherData       *captureMeta `json:"otherData,omitempty"`
}

// micros converts tracer nanos to trace-event microseconds.
func micros(ns int64) float64 { return float64(ns) / 1e3 }

// flowIDString renders a flow id; both ends must render identically.
func flowIDString(flow uint64) string { return "0x" + strconv.FormatUint(flow, 16) }

// exportEvents renders decoded events (plus name/metadata rows) for one
// tracer. cat tags every event so merged files can be filtered by rank.
func exportEvents(evs []Event, names []nameDef, nameIdx map[string]ID, pid int, procName string, threads map[int]string) []jsonEvent {
	out := make([]jsonEvent, 0, len(evs)+1+len(threads))
	if procName != "" {
		out = append(out, jsonEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": procName},
		})
	}
	tids := make([]int, 0, len(threads))
	for tid := range threads {
		tids = append(tids, tid)
	}
	sort.Ints(tids)
	for _, tid := range tids {
		out = append(out, jsonEvent{
			Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": threads[tid]},
		})
	}
	for _, ev := range evs {
		je := jsonEvent{Name: ev.Name, Ts: micros(ev.Ts), Pid: pid, Tid: ev.TID}
		var argNames []string
		if id, ok := nameIdx[ev.Name]; ok {
			argNames = names[id-1].args
		}
		switch ev.Kind {
		case KindSpan:
			je.Ph = "X"
			d := micros(ev.Dur)
			je.Dur = &d
			je.Args = spanArgs(argNames, ev.Args)
		case KindFlowStart:
			je.Ph = "s"
			je.Cat = "comm"
			if len(ev.Args) > 0 {
				je.ID = flowIDString(ev.Args[0])
			}
		case KindFlowEnd:
			je.Ph = "f"
			je.BP = "e"
			je.Cat = "comm"
			if len(ev.Args) > 0 {
				je.ID = flowIDString(ev.Args[0])
			}
		default:
			continue
		}
		out = append(out, je)
	}
	return out
}

// spanArgs zips interned argument labels with the recorded words;
// surplus words get positional names.
func spanArgs(argNames []string, args []uint64) map[string]any {
	if len(args) == 0 {
		return nil
	}
	m := make(map[string]any, len(args))
	for i, v := range args {
		key := "arg" + strconv.Itoa(i)
		if i < len(argNames) {
			key = argNames[i]
		}
		m[key] = v
	}
	return m
}

// Capture renders the tracer's current contents as one trace-event
// JSON document. Safe while emitters run (live capture); events with
// Ts < sinceNanos are excluded (pass 0 for everything).
func (t *Tracer) Capture(sinceNanos int64) ([]byte, error) {
	if t == nil {
		return json.Marshal(jsonCapture{TraceEvents: []jsonEvent{}})
	}
	evs := t.Events()
	if sinceNanos > 0 {
		kept := evs[:0]
		for _, ev := range evs {
			if ev.Ts >= sinceNanos {
				kept = append(kept, ev)
			}
		}
		evs = kept
	}
	t.mu.Lock()
	names := t.names
	nameIdx := make(map[string]ID, len(t.nameIDs))
	for k, v := range t.nameIDs {
		nameIdx[k] = v
	}
	procName := t.procName
	threads := make(map[int]string, len(t.threads))
	for k, v := range t.threads {
		threads[k] = v
	}
	t.mu.Unlock()
	cap := jsonCapture{
		TraceEvents:     exportEvents(evs, names, nameIdx, t.pid, procName, threads),
		DisplayTimeUnit: "ms",
		OtherData: &captureMeta{
			Pid:           t.pid,
			BaseWallNanos: strconv.FormatInt(t.baseWall, 10),
			Drops:         t.Drops(),
		},
	}
	return json.MarshalIndent(cap, "", " ")
}

// WriteJSON writes the full capture (see Capture) to w.
func (t *Tracer) WriteJSON(w io.Writer) error {
	buf, err := t.Capture(0)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// WriteFile writes the full capture (see Capture) to a file at path,
// created or truncated.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// CaptureStats summarizes a parsed capture for validation (the
// parapll-trace check subcommand and scripts/check.sh's trace smoke).
type CaptureStats struct {
	Events int
	Spans  int
	Flows  int
	Pids   []int
	Drops  uint64
}

// CheckCapture parses a trace-event JSON document and validates the
// schema: a traceEvents array whose entries carry known phases and,
// per (pid, tid), non-decreasing timestamps. Returns summary counts.
func CheckCapture(data []byte) (CaptureStats, error) {
	var cap jsonCapture
	if err := json.Unmarshal(data, &cap); err != nil {
		return CaptureStats{}, fmt.Errorf("trace: capture is not valid JSON: %w", err)
	}
	if cap.TraceEvents == nil {
		return CaptureStats{}, fmt.Errorf("trace: capture has no traceEvents array")
	}
	st := CaptureStats{Events: len(cap.TraceEvents)}
	if cap.OtherData != nil {
		st.Drops = cap.OtherData.Drops
	}
	lastTs := map[[2]int]float64{}
	pids := map[int]bool{}
	for i, ev := range cap.TraceEvents {
		switch ev.Ph {
		case "X":
			st.Spans++
		case "s", "f":
			st.Flows++
		case "i", "M", "t":
		default:
			return st, fmt.Errorf("trace: event %d has unknown phase %q", i, ev.Ph)
		}
		if ev.Ph == "M" {
			continue
		}
		pids[ev.Pid] = true
		key := [2]int{ev.Pid, ev.Tid}
		if prev, ok := lastTs[key]; ok && ev.Ts < prev {
			return st, fmt.Errorf("trace: event %d (pid %d tid %d) goes back in time: %f < %f",
				i, ev.Pid, ev.Tid, ev.Ts, prev)
		}
		lastTs[key] = ev.Ts
	}
	st.Pids = make([]int, 0, len(pids))
	for p := range pids {
		st.Pids = append(st.Pids, p)
	}
	sort.Ints(st.Pids)
	return st, nil
}
