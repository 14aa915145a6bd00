package bench

import (
	"fmt"
	"time"

	"parapll/internal/cluster"
	"parapll/internal/graph"
	"parapll/internal/stats"
)

// SyncResult is one sync-pipeline measurement: a full cluster build on
// the in-process transport at a given sync count, blocking or
// overlapped.
type SyncResult struct {
	Dataset string
	// SyncCount is the paper's c for this run.
	SyncCount int
	Overlap   bool
	// WallSeconds is the end-to-end RunLocal time (all nodes, one host).
	WallSeconds float64
	// CompSeconds / CommSeconds are maxima over nodes. CommSeconds is
	// the *exposed* communication cost — in overlapped mode, the part
	// the overlap failed to hide.
	CompSeconds float64
	CommSeconds float64
	// UpdatesSent / WireBytes / RawBytes sum over all nodes and rounds.
	// Compression = RawBytes / WireBytes (raw = 12 B fixed per update).
	UpdatesSent int64
	WireBytes   int64
	RawBytes    int64
	Compression float64
	// Entries / AvgLabel describe the final index (identical on every
	// node); redundancy from delayed or overlapped sync shows up here.
	Entries  int64
	AvgLabel float64
}

// RunSync benchmarks the cluster sync pipeline: for every dataset and
// sync count in cfg, a blocking and an overlapped build on a simulated
// `nodes`-node cluster. Returns the rendered table plus the raw
// records behind its rows.
func RunSync(cfg Config, nodes, threadsPerNode int) (*Table, []SyncResult, error) {
	recs, err := cfg.recipes()
	if err != nil {
		return nil, nil, err
	}
	t := &Table{
		Title: fmt.Sprintf("Sync pipeline: blocking vs overlapped cluster builds (%d nodes, %d threads/node) — comm = exposed sync cost, ratio = raw/wire",
			nodes, threadsPerNode),
		Header: []string{"dataset", "c", "overlap", "wall_s", "comp_s", "comm_s", "wire_KB", "ratio", "ln"},
	}
	var out []SyncResult
	for _, rec := range recs {
		g := rec.Generate(cfg.Scale)
		ord := graph.DegreeOrder(g)
		for _, c := range cfg.SyncCounts {
			for _, overlap := range []bool{false, true} {
				res, err := measureSync(g, rec.Name, nodes, threadsPerNode, c, overlap, ord)
				if err != nil {
					return nil, nil, err
				}
				out = append(out, res)
				t.AddRow(
					rec.Name,
					fmt.Sprint(c),
					fmt.Sprint(overlap),
					stats.FormatDuration(time.Duration(res.WallSeconds*float64(time.Second))),
					stats.FormatDuration(time.Duration(res.CompSeconds*float64(time.Second))),
					stats.FormatDuration(time.Duration(res.CommSeconds*float64(time.Second))),
					fmt.Sprintf("%.1f", float64(res.WireBytes)/1024),
					fmt.Sprintf("%.2f", res.Compression),
					fmt.Sprintf("%.1f", res.AvgLabel),
				)
			}
		}
	}
	return t, out, nil
}

func measureSync(g *graph.Graph, name string, nodes, threads, c int, overlap bool, ord []graph.Vertex) (SyncResult, error) {
	t0 := time.Now()
	idxs, sts, err := cluster.RunLocal(g, nodes, cluster.Options{
		Threads: threads, SyncCount: c, Order: ord, Overlap: overlap,
	})
	wall := time.Since(t0)
	if err != nil {
		return SyncResult{}, err
	}
	res := SyncResult{
		Dataset:     name,
		SyncCount:   c,
		Overlap:     overlap,
		WallSeconds: wall.Seconds(),
		Entries:     idxs[0].NumEntries(),
		AvgLabel:    idxs[0].AvgLabelSize(),
	}
	for _, s := range sts {
		if v := s.CompTime.Seconds(); v > res.CompSeconds {
			res.CompSeconds = v
		}
		if v := s.CommTime.Seconds(); v > res.CommSeconds {
			res.CommSeconds = v
		}
		res.UpdatesSent += totalUpdates(s)
		res.WireBytes += s.BytesSent
		res.RawBytes += s.RawBytesSent
	}
	if res.WireBytes > 0 {
		res.Compression = float64(res.RawBytes) / float64(res.WireBytes)
	}
	return res, nil
}

func totalUpdates(s *cluster.Stats) int64 {
	var n int64
	for _, r := range s.Rounds {
		n += r.UpdatesSent
	}
	return n
}
