package analysis

// GoroLife flags fire-and-forget goroutines in the long-running tree.
// The server, the compaction pipeline and the mpi transport all own
// goroutines that must be stoppable: a goroutine with no reachable
// lifecycle primitive — no done/stop channel operation, no select, no
// context.Context Done/Err, no sync.WaitGroup — can neither be told to
// exit nor be waited for, so Close returns while work is still running
// against freed resources (the classic shutdown race).
//
// For every `go` statement the analyzer resolves the goroutine's entry
// (a literal, a concrete function, or every implementation of an
// interface method) and checks the entry's transitive summary for a
// lifecycle fact. Reachability is a heuristic, not a proof of correct
// shutdown — a goroutine that merely sends its result on a channel
// passes — but its absence is always a real finding: nothing outside
// the goroutine can observe or end it. Spawns through plain function
// variables cannot be resolved statically and are flagged for an
// explicit vet-ignore with the reasoning.
var GoroLife = &Analyzer{
	Name: "gorolife",
	Doc:  "goroutines in server/compact/mpi must reach a shutdown primitive (done channel, context, WaitGroup)",
	// The trees that own long-lived goroutines.
	Packages: []string{"internal/server", "internal/compact", "internal/mpi"},
	Run:      runGoroLife,
}

func runGoroLife(pass *Pass) error {
	for _, fn := range pass.Prog.Funcs {
		if fn.Pkg.Path != pass.PkgPath {
			continue
		}
		for _, sp := range fn.Spawns {
			if sp.Unresolved || len(sp.Targets) == 0 {
				pass.Reportf(sp.Pos, "goroutine entry cannot be resolved statically: tie it to a shutdown path and vet-ignore with the reasoning")
				continue
			}
			tied := false
			for _, t := range sp.Targets {
				if t.Facts.Lifecycle {
					tied = true
					break
				}
			}
			if !tied {
				pass.Reportf(sp.Pos, "goroutine %s is fire-and-forget: no done channel, context or WaitGroup is reachable from its body, so nothing can stop or await it",
					sp.Targets[0].Name)
			}
		}
	}
	return nil
}
