package mpi_test

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// leakCheck registers a cleanup that fails t if, a second after the
// test and its other cleanups are done, a goroutine other than a test's
// own still runs code of this module's internal packages: something a
// Close, or a call that failed, should have stopped or waited for. Call
// it first, so its cleanup runs last.
func leakCheck(t *testing.T) {
	t.Cleanup(func() {
		var left []string
		for deadline := time.Now().Add(time.Second); ; time.Sleep(5 * time.Millisecond) {
			if left = moduleGoroutines(); len(left) == 0 || time.Now().After(deadline) {
				break
			}
		}
		if len(left) > 0 {
			t.Errorf("%d goroutine(s) outlive the test:\n\n%s", len(left), strings.Join(left, "\n\n"))
		}
	})
}

// moduleGoroutines returns the stacks that name one of this module's
// internal packages — in a frame or as the creator — leaving out the
// test goroutines, which testing.tRunner runs.
func moduleGoroutines() []string {
	buf := make([]byte, 64<<10)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "parapll/internal/") && !strings.Contains(g, "testing.tRunner") {
			out = append(out, g)
		}
	}
	return out
}
