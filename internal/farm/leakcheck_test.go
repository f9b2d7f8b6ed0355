package farm

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// The farm's goroutine-exit check: every farm test defers it, so after
// each run shape — clean, sharded, chaos kills, pool exhaustion, the
// pause drain, shedding on failure and resume — no worker goroutine
// survives Run.

// workerGoroutines counts live goroutines with a (*worker) frame — the
// pool itself, not the test goroutine (whose frames are farm.TestXxx).
func workerGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "farm.(*worker).") {
			count++
		}
	}
	return count
}

// checkGoroutineLeak snapshots runtime.NumGoroutine and returns a
// function to defer: it polls (goroutine teardown is asynchronous) until
// every worker goroutine is gone and the total is back at the snapshot,
// and fails the test with full stacks if that never happens.
func checkGoroutineLeak(t *testing.T) func() {
	t.Helper()
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			workers := workerGoroutines()
			total := runtime.NumGoroutine()
			if workers == 0 && total <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak after farm run: %d worker goroutines still live, %d total vs %d at start\n%s",
					workers, total, before, buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}
