package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"parapll/internal/core"
)

// smokeConfig keeps the whole experiment grid tiny so tests stay fast.
func smokeConfig() Config {
	return Config{
		Scale:      0.005,
		Datasets:   []string{"Wiki-Vote", "Gnutella"},
		Threads:    []int{1, 2},
		Nodes:      []int{1, 2},
		SyncCounts: []int{1, 4},
		Queries:    20,
	}
}

// parseFloatCell asserts a table cell parses as a float.
func parseFloatCell(t *testing.T, table *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(table.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, table.Rows[row][col], err)
	}
	return v
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig(1.0)
	if cfg.Scale != 1.0 || len(cfg.Threads) != 7 || len(cfg.Nodes) != 6 || len(cfg.SyncCounts) != 8 {
		t.Fatalf("unexpected default config %+v", cfg)
	}
}

func TestUnknownDatasetRejected(t *testing.T) {
	cfg := smokeConfig()
	cfg.Datasets = []string{"NoSuchGraph"}
	if _, err := RunTable3(cfg); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestRunTable3And4(t *testing.T) {
	cfg := smokeConfig()
	for name, run := range map[string]func(Config) (*Table, error){
		"table3": RunTable3,
		"table4": RunTable4,
	} {
		t.Run(name, func(t *testing.T) {
			table, err := run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantRows := len(cfg.Datasets) * len(cfg.Threads)
			if len(table.Rows) != wantRows {
				t.Fatalf("rows = %d, want %d", len(table.Rows), wantRows)
			}
			for r := range table.Rows {
				if sp := parseFloatCell(t, table, r, 7); sp <= 0 {
					t.Fatalf("row %d wall speedup %v not positive", r, sp)
				}
				if sp := parseFloatCell(t, table, r, 8); sp <= 0 {
					t.Fatalf("row %d projected speedup %v not positive", r, sp)
				}
				if ln := parseFloatCell(t, table, r, 9); ln < 1 {
					t.Fatalf("row %d LN %v < 1 (every vertex labels itself)", r, ln)
				}
			}
			// The 1-thread row's speedups are exactly 1 by definition.
			if sp := parseFloatCell(t, table, 0, 7); sp != 1.0 {
				t.Fatalf("baseline wall speedup = %v, want 1.00", sp)
			}
			if sp := parseFloatCell(t, table, 0, 8); sp != 1.0 {
				t.Fatalf("baseline projected speedup = %v, want 1.00", sp)
			}
			// Projected speedup with 2 threads cannot exceed 2 by more
			// than rounding; it reflects real load balance.
			if sp := parseFloatCell(t, table, 1, 8); sp > 2.05 {
				t.Fatalf("2-thread projected speedup %v > 2", sp)
			}
		})
	}
}

func TestRunTable5(t *testing.T) {
	table, err := RunTable5(smokeConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig()
	if want := len(cfg.Datasets) * len(cfg.Nodes); len(table.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(table.Rows), want)
	}
	for r := range table.Rows {
		parseFloatCell(t, table, r, 2) // static IT
		parseFloatCell(t, table, r, 4) // dynamic IT
		if ln := parseFloatCell(t, table, r, 6); ln < 1 {
			t.Fatalf("row %d LN %v < 1", r, ln)
		}
	}
}

func TestRunFig5(t *testing.T) {
	table, err := RunFig5(smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Fatal("no CCDF rows")
	}
	// CCDF values in (0,1]; first row of each dataset is 1.0.
	for r := range table.Rows {
		v := parseFloatCell(t, table, r, 2)
		if v <= 0 || v > 1 {
			t.Fatalf("row %d CCDF %v out of (0,1]", r, v)
		}
	}
}

func TestRunFig6(t *testing.T) {
	table, err := RunFig6(smokeConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	variants := map[string]bool{}
	for _, row := range table.Rows {
		variants[row[1]] = true
		v, _ := strconv.ParseFloat(row[3], 64)
		if v < 0 || v > 1 {
			t.Fatalf("CDF value %v out of range", v)
		}
	}
	for _, want := range []string{"pll", "parapll-static", "parapll-dynamic"} {
		if !variants[want] {
			t.Fatalf("variant %s missing from figure 6 data", want)
		}
	}
	// Per (dataset,variant), CDF must be non-decreasing in x and end at 1.
	last := map[string]float64{}
	for _, row := range table.Rows {
		key := row[0] + "/" + row[1]
		v, _ := strconv.ParseFloat(row[3], 64)
		if v+1e-9 < last[key] {
			t.Fatalf("CDF decreased for %s", key)
		}
		last[key] = v
	}
	for key, v := range last {
		if v < 0.999 {
			t.Fatalf("CDF for %s ends at %v, want 1", key, v)
		}
	}
}

func TestRunFig7(t *testing.T) {
	table, err := RunFig7(smokeConfig(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smokeConfig()
	if want := len(cfg.Datasets) * len(cfg.SyncCounts); len(table.Rows) != want {
		t.Fatalf("rows = %d, want %d", len(table.Rows), want)
	}
	// Label size must not grow when syncing more (Figure 7(b)).
	for i := 0; i+1 < len(table.Rows); i += len(cfg.SyncCounts) {
		first := parseFloatCell(t, table, i, 5) // c=1
		lastRow := i + len(cfg.SyncCounts) - 1
		lastLN := parseFloatCell(t, table, lastRow, 5) // c=max
		if lastLN > first+0.5 {
			t.Fatalf("LN grew with more syncs: c=1 -> %.1f, c=max -> %.1f", first, lastLN)
		}
	}
}

func TestRunQueryComparison(t *testing.T) {
	table, err := RunQueryComparison(smokeConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for r := range table.Rows {
		if mb := parseFloatCell(t, table, r, 2); mb <= 0 {
			t.Fatalf("row %d: non-positive index memory %v", r, mb)
		}
		dij := parseFloatCell(t, table, r, 3)
		q := parseFloatCell(t, table, r, 5)
		if q <= 0 || dij <= 0 {
			t.Fatalf("row %d: non-positive latencies", r)
		}
		// The entire point of the paper: indexed queries are much faster.
		if q > dij {
			t.Fatalf("row %d: indexed query (%.3fus) slower than Dijkstra (%.3fus)", r, q, dij)
		}
	}
}

func TestSimulateMakespan(t *testing.T) {
	works := []int64{10, 1, 1, 1}
	// Static round-robin, p=2: worker0 = 10+1 = 11, worker1 = 1+1 = 2.
	if ms := simulateMakespan(works, 2, core.Static); ms != 11 {
		t.Fatalf("static makespan = %d, want 11", ms)
	}
	// Dynamic greedy: 10 -> w0; 1,1,1 -> w1: makespan 10.
	if ms := simulateMakespan(works, 2, core.Dynamic); ms != 10 {
		t.Fatalf("dynamic makespan = %d, want 10", ms)
	}
	// One worker: both policies serialize.
	if simulateMakespan(works, 1, core.Static) != 13 || simulateMakespan(works, 1, core.Dynamic) != 13 {
		t.Fatal("p=1 makespan wrong")
	}
	// p clamped to >= 1; empty works -> 0.
	if simulateMakespan(nil, 0, core.Dynamic) != 0 {
		t.Fatal("empty works makespan wrong")
	}
	// The paper's headline claim in miniature: dynamic never loses to
	// static on a skewed workload.
	skewed := []int64{100, 90, 1, 1, 1, 1, 80, 1}
	for _, p := range []int{2, 3, 4} {
		if simulateMakespan(skewed, p, core.Dynamic) > simulateMakespan(skewed, p, core.Static) {
			t.Fatalf("p=%d: dynamic makespan worse than static", p)
		}
	}
}

func TestRunAblations(t *testing.T) {
	cfg := smokeConfig()
	table, err := RunAblations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The ordering family is the only one: three policies on each graph.
	if len(table.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(table.Rows))
	}
	for i, row := range table.Rows {
		if row[1] != "order" {
			t.Errorf("row %d is ablation %q, want order", i, row[1])
		}
		parseFloatCell(t, table, i, 3) // seconds parse
		parseFloatCell(t, table, i, 5) // entries parse
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{Title: "T", Header: []string{"a", "bb"}}
	table.AddRow("1", "2")
	table.AddRow("333", "4")
	var txt bytes.Buffer
	if err := table.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "333") {
		t.Fatalf("text render missing content:\n%s", out)
	}
	var csvBuf bytes.Buffer
	if err := table.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if got := csvBuf.String(); got != "a,bb\n1,2\n333,4\n" {
		t.Fatalf("csv = %q", got)
	}
}

func TestAddRowValidatesArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	table := &Table{Header: []string{"a", "b"}}
	table.AddRow("only-one")
}

func TestLogPoints(t *testing.T) {
	pts := logPoints(1000)
	if pts[0] != 0 || pts[len(pts)-1] != 999 {
		t.Fatalf("endpoints wrong: %v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Fatal("logPoints not strictly increasing")
		}
	}
	if logPoints(0) != nil {
		t.Fatal("logPoints(0) should be nil")
	}
	if got := logPoints(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("logPoints(1) = %v", got)
	}
}
