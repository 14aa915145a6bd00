package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the A/A comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readSet reads aa.sh's output: one "<workload>\t<result JSON>" line
// per run (the run's "full:" line: the result with everything else it
// measured), and returns values[workload][metric] in run order.
func readSet(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		workload, line, ok := strings.Cut(sc.Text(), "\t")
		if !ok {
			return nil, fmt.Errorf("%s: line without a workload tab: %q", path, sc.Text())
		}
		var r struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a %s run reported incorrect answers", path, workload)
		}
		if out[workload] == nil {
			out[workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[workload][name] = append(out[workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// spread is the acceptance driver's measure of run-to-run noise: the
// interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}

// compareSets prints, per workload and end-to-end metric, both sets'
// medians and spreads, the spread of all runs pooled, how much worse set
// B's median is than set A's, and the bound from BENCHMARK.json. Both
// sets ran the same code, so a disagreement beyond the bound, or a
// pooled spread wider than it, means the benchmark (not the program) is
// too noisy for that bound; the return value is the process exit code.
// The pooled runs are what one of the acceptance driver's sets of ten
// looks like. setup_s is judged on its medians only: the contract
// requires it as an end-to-end metric and exempts its spread, and a
// set-up is single process starts and warm-ups as the machine prices
// them (see README).
//
// Every other metric in the result lines — an untraced run's ungated
// timings, a traced run's per-layer metrics — is printed the same way
// and never judged; the README's list of demoted metrics is this output.
func compareSets(specPath, pathA, pathB string) int {
	data, err := os.ReadFile(specPath)
	if err != nil {
		die("%v", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		die("%s: %v", specPath, err)
	}
	a, err := readSet(pathA)
	if err != nil {
		die("%v", err)
	}
	b, err := readSet(pathB)
	if err != nil {
		die("%v", err)
	}
	bad := 0
	const row = "%-13s %-30s %12.6g %12.6g %7.1f%% %7.1f%% %7.1f%% %+7.1f%% %6s  %s\n"
	fmt.Printf("%-13s %-30s %12s %12s %8s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "spreadA", "spreadB", "pooled", "B worse", "bound", "verdict")
	gated := map[string]bool{}
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			gated[m.Name] = true
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-13s %-30s missing from a set\n", w.Name, m.Name)
				bad++
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / math.Abs(ma)
			if m.Better == "higher" {
				worse = -worse
			}
			pooled := spread(append(append([]float64(nil), va...), vb...))
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "DISAGREE"
				bad++
			case m.Name == "setup_s":
				verdict = "ok (medians; spread exempt by contract)"
			case pooled > m.Bound:
				verdict = "TOO WIDE"
				bad++
			case pooled > m.Bound/3:
				verdict = "ok (spread above bound/3)"
			}
			fmt.Printf(row, w.Name, m.Name, ma, mb, 100*spread(va), 100*spread(vb), 100*pooled, 100*worse,
				fmt.Sprintf("%.0f%%", 100*m.Bound), verdict)
		}
	}
	for _, w := range spec.Workloads {
		var names []string
		for name := range a[w.Name] {
			if !gated[name] && len(b[w.Name][name]) > 0 {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := a[w.Name][name], b[w.Name][name]
			ma, mb := median(va), median(vb)
			fmt.Printf(row, w.Name, name, ma, mb, 100*spread(va), 100*spread(vb),
				100*spread(append(append([]float64(nil), va...), vb...)), 100*(mb-ma)/math.Abs(ma), "-", "not gated")
		}
	}
	if bad != 0 {
		fmt.Printf("%d end-to-end metric(s) outside their bound between two sets of the same code\n", bad)
		return 1
	}
	fmt.Println("both sets agree within every bound")
	return 0
}
