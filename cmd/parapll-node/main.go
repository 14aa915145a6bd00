// parapll-node runs one rank of a real multi-process ParaPLL cluster over
// TCP, or — with -launch — spawns a whole local cluster of itself.
//
// Distributed usage (one command per machine/process):
//
//	parapll-node -rank 0 -size 3 -root 10.0.0.1:7777 -graph g.bin -out g.idx
//	parapll-node -rank 1 -size 3 -root 10.0.0.1:7777 -graph g.bin
//	parapll-node -rank 2 -size 3 -root 10.0.0.1:7777 -graph g.bin
//
// Local-cluster usage (spawns size-1 child processes):
//
//	parapll-node -launch -size 4 -graph g.bin -out g.idx
//
// Each rank searches its roots in -syncs segments, and each sync between
// them is one blocking allgather of the new labels (the paper's c,
// Algorithm 3). Every rank builds the identical cluster-wide index; only
// ranks given -out write it to disk.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strings"
	"time"

	"parapll"
	"parapll/internal/cluster"
	"parapll/internal/core"
	"parapll/internal/mpi"
	"parapll/internal/mpi/tcpnet"
	"parapll/internal/order"
)

func main() {
	var (
		rank      = flag.Int("rank", 0, "this process's rank in [0,size)")
		size      = flag.Int("size", 1, "number of cluster nodes")
		rootAddr  = flag.String("root", "127.0.0.1:7777", "rendezvous address rank 0 listens on")
		graphPath = flag.String("graph", "", "graph file (same on every rank)")
		out       = flag.String("out", "", "write the final index here (optional)")
		threads   = flag.Int("threads", 0, "worker threads per node (0 = all cores)")
		policy    = flag.String("policy", "dynamic", "intra-node policy: static or dynamic")
		syncCount = flag.Int("syncs", 1, "number of label synchronizations (paper's c)")
		launch    = flag.Bool("launch", false, "spawn size-1 child ranks locally and run as rank 0")
		verbose   = flag.Bool("v", false, "report per-round sync volume and transport totals")
		tracePath = flag.String("trace", "", "record this rank's build timeline as Chrome trace-event JSON; rank r writes <path>.rank<r>.json (merge with parapll-trace)")
	)
	flag.Parse()
	if *graphPath == "" {
		fatalf("need -graph")
	}
	pol := core.Dynamic
	switch *policy {
	case "dynamic":
	case "static":
		pol = core.Static
	default:
		fatalf("unknown policy %q", *policy)
	}
	if *size > 1 {
		// Ranks 1..size-1 dial -root as written, so port 0 (rank 0
		// listening wherever the kernel puts it) is one they never reach.
		if _, port, err := net.SplitHostPort(*rootAddr); err != nil {
			fatalf("bad -root %q: %v", *rootAddr, err)
		} else if port == "0" {
			fatalf("-root %q: a cluster of %d ranks needs a fixed rendezvous port, not 0", *rootAddr, *size)
		}
	}

	if *launch {
		if *rank != 0 {
			fatalf("-launch implies rank 0")
		}
		if err := launchChildren(*size, *rootAddr, *graphPath, *threads, *policy, *syncCount, *verbose, *tracePath); err != nil {
			fatalf("launching children: %v", err)
		}
	}

	g, err := parapll.LoadGraph(*graphPath)
	if err != nil {
		fatalf("loading graph: %v", err)
	}
	comm, err := tcpnet.Connect(*rank, *size, *rootAddr, "")
	if err != nil {
		fatalf("joining cluster: %v", err)
	}
	defer comm.Close()
	fmt.Fprintf(os.Stderr, "rank %d/%d up (graph n=%d m=%d)\n", *rank, *size, g.NumVertices(), g.NumEdges())

	var tr *parapll.Tracer
	if *tracePath != "" {
		tr = parapll.NewTracer(*rank, 0)
		tr.Enable()
	}

	t0 := time.Now()
	idx, st, err := cluster.Build(g, cluster.Options{
		Comm:      comm,
		Threads:   *threads,
		Policy:    pol,
		Order:     order.Degree(g),
		SyncCount: *syncCount,
		Tracer:    tr,
	})
	if err != nil {
		fatalf("indexing: %v", err)
	}
	if tr != nil {
		rankPath := rankTracePath(*tracePath, *rank)
		if err := tr.WriteFile(rankPath); err != nil {
			fatalf("writing trace: %v", err)
		}
		fmt.Fprintf(os.Stderr, "rank %d: trace (%d events, %d dropped) -> %s\n",
			*rank, len(tr.Events()), tr.Drops(), rankPath)
		if *rank == 0 && *size > 1 {
			fmt.Fprintf(os.Stderr, "merge the cross-rank timeline with: parapll-trace merge -out %s %s\n",
				*tracePath, rankTracePath(*tracePath, -1))
		}
	}
	fmt.Printf("rank %d: indexed in %.2fs (comp %.2fs, comm %.2fs, %d local roots, sent %d bytes) LN=%.1f\n",
		*rank, time.Since(t0).Seconds(), st.CompTime.Seconds(), st.CommTime.Seconds(),
		st.LocalRoots, st.BytesSent, idx.AvgLabelSize())
	if *verbose {
		var labels int64
		for i, r := range st.Rounds {
			fmt.Printf("rank %d: sync %d/%d: sent %d labels (%d wire bytes), merged %d labels (%d wire bytes)\n",
				*rank, i+1, len(st.Rounds), r.UpdatesSent, r.BytesSent, r.UpdatesReceived, r.BytesReceived)
			labels += r.UpdatesSent + r.UpdatesReceived
		}
		fmt.Printf("rank %d: sync totals: %d labels in %d wire bytes, finalize %.3fs\n",
			*rank, labels, st.BytesSent+st.BytesReceived, st.FinalizeTime.Seconds())
		if ins, ok := comm.(mpi.Instrumented); ok {
			cs := ins.Stats()
			fmt.Printf("rank %d: transport: %d msgs / %d bytes sent, %d msgs / %d bytes received\n",
				*rank, cs.MsgsSent, cs.BytesSent, cs.MsgsRecv, cs.BytesRecv)
		}
	}

	if *out != "" {
		if err := parapll.SaveIndex(*out, idx); err != nil {
			fatalf("saving index: %v", err)
		}
		fmt.Printf("rank %d: index -> %s\n", *rank, *out)
	}
}

// launchChildren starts ranks 1..size-1 as child processes of this binary
// and returns immediately; the caller continues as rank 0. Children
// inherit stdout/stderr.
func launchChildren(size int, rootAddr, graphPath string, threads int, policy string, syncs int, verbose bool, tracePath string) error {
	if size < 2 {
		return nil
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for r := 1; r < size; r++ {
		args := []string{
			"-rank", fmt.Sprint(r),
			"-size", fmt.Sprint(size),
			"-root", rootAddr,
			"-graph", graphPath,
			"-threads", fmt.Sprint(threads),
			"-policy", policy,
			"-syncs", fmt.Sprint(syncs),
		}
		if verbose {
			args = append(args, "-v")
		}
		if tracePath != "" {
			args = append(args, "-trace", tracePath)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("rank %d: %w", r, err)
		}
		// Children are intentionally not waited on: each exits after the
		// collective build completes, and rank 0's own completion implies
		// theirs (the final allgather is a synchronization point).
		go cmd.Wait()
	}
	return nil
}

// rankTracePath derives rank r's trace filename from the shared -trace
// path: base.rank<r>.json. r < 0 yields the matching shell glob.
func rankTracePath(path string, r int) string {
	base := strings.TrimSuffix(path, ".json")
	if r < 0 {
		return base + ".rank*.json"
	}
	return fmt.Sprintf("%s.rank%d.json", base, r)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "parapll-node: "+format+"\n", args...)
	os.Exit(1)
}
