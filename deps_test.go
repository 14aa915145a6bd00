package parapll_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// TestOfflineToolsLinkNoNetwork: only the tools that serve or join a
// cluster over sockets link the network stack. Every other command must
// depend on neither net nor runtime/cgo, so that it links statically and
// starts without the dynamic loader and libc; a failure names the
// imports of this module that pull the offender in.
func TestOfflineToolsLinkNoNetwork(t *testing.T) {
	networked := map[string]bool{
		"parapll/cmd/parapll-server": true,
		"parapll/cmd/parapll-node":   true,
	}
	out, err := exec.Command("go", "list", "-deps", "-f",
		"{{.ImportPath}}|{{join .Imports \" \"}}|{{join .Deps \" \"}}", "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imports := map[string][]string{}
	deps := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		imports[f[0]] = strings.Fields(f[1])
		deps[f[0]] = strings.Fields(f[2])
	}
	for _, tool := range []string{"gen", "index", "query", "bench", "trace"} {
		cmd := "parapll/cmd/parapll-" + tool
		if deps[cmd] == nil {
			t.Errorf("go list names no %s", cmd)
		}
	}
	for cmd, d := range deps {
		if !strings.HasPrefix(cmd, "parapll/cmd/") || networked[cmd] {
			continue
		}
		for _, bad := range []string{"net", "runtime/cgo"} {
			if !slices.Contains(d, bad) {
				continue
			}
			var via []string
			for _, p := range append([]string{cmd}, d...) {
				if !strings.HasPrefix(p, "parapll") {
					continue
				}
				for _, i := range imports[p] {
					if !strings.HasPrefix(i, "parapll") && (i == bad || slices.Contains(deps[i], bad)) {
						via = append(via, p+" -> "+i)
					}
				}
			}
			t.Errorf("%s links %s through %s", cmd, bad, strings.Join(via, ", "))
		}
	}
}
