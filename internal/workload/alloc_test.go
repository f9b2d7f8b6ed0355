package workload

import (
	"runtime"
	"testing"

	"vax780/internal/checkpoint"
	"vax780/internal/cpu"
)

// The stepping loop's heap budget, per 1,000 instructions of a profile
// in steady state (after boot and a warmup), counted over a window of
// allocWindow instructions. What the loop allocates there is guest
// memory: a 512-byte frame on the first nonzero store into it
// (DESIGN.md §3, §13). The five profiles measure 0.57–1.12 allocations
// and 294–573 bytes per 1,000 instructions, every one a frame; a step
// that allocates every other instruction counts 500.
const (
	allocWindow   = 200_000
	allocsPerKilo = 5
	bytesPerKilo  = 4096
)

// A steady machine warms up for steadyWarmup cycles of a session
// prepared for steadyCycles, so its terminal schedule (queued up to
// steadyCycles) covers the warmup and the whole window: allocWindow
// instructions take 1.45–1.91M cycles on the five profiles.
const (
	steadyWarmup = 200_000
	steadyCycles = 3_000_000
)

// TestStepAllocations holds the stepping loop to its heap budget on all
// five workload profiles: prepare a session exactly as a real
// measurement would (monitor attached), run past boot into steady state,
// then count every heap allocation and byte the process makes while
// StepInstruction runs allocWindow times (runtime.MemStats deltas, not a
// rounded mean). A budget per 1,000 instructions tolerates the frames
// guest memory takes and the runtime's own stray allocations;
// TestLatencySweepAllocations (internal/experiments) requires each
// opcode and addressing mode alone to allocate nothing.
func TestStepAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is too slow for -short")
	}
	for _, p := range All() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			m := steadyMachine(t, p)
			start := m.Cycle()
			allocs, bytes := countAllocs(allocWindow, func(int) { m.StepInstruction() })
			kilo := float64(allocWindow) / 1000
			t.Logf("%s: %d allocations, %d bytes in %d instructions, %d cycles (%.2f and %.0f per 1,000 instructions)",
				p.Name, allocs, bytes, allocWindow, m.Cycle()-start, float64(allocs)/kilo, float64(bytes)/kilo)
			if end := m.Cycle(); end > steadyCycles {
				t.Errorf("%s: window ends at cycle %d, past the %d cycles its terminal schedule covers", p.Name, end, steadyCycles)
			}
			if float64(allocs) > allocsPerKilo*kilo || float64(bytes) > bytesPerKilo*kilo {
				t.Errorf("%s: %.2f allocations and %.0f bytes per 1,000 instructions, budget %d and %d",
					p.Name, float64(allocs)/kilo, float64(bytes)/kilo, allocsPerKilo, bytesPerKilo)
			}
		})
	}
}

// A checkpoint's heap budget, once its run's snapshot holds storage:
// refilling the snapshot and Dir.Save writing it. A save allocated
// 2.2–2.5 MB when each took a new snapshot with its own copy of the
// memory image and encoded it into a payload buffer before writing; what
// is left is gob's buffer for the snapshot without the image, the
// component states the machine and OS export afresh (cache lines, the
// terminal schedule) and the file.
const (
	saveBudget = 384 << 10
	saveCycles = 2_000_000
	saves      = 10
)

// TestCheckpointSaveAllocations holds a checkpoint to its heap budget on
// all five profiles: run saveCycles, save once into a kept snapshot, as
// a supervised run does, then count every heap byte each of ten further
// saves — refill plus Dir.Save — allocates (runtime.MemStats deltas).
func TestCheckpointSaveAllocations(t *testing.T) {
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) {
			s, err := build(p, saveCycles, cpu.Config{}, nil)
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if res := s.sys.Run(saveCycles); res.Err != nil || res.Halted {
				t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
			}
			d, err := checkpoint.Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			snap := new(checkpoint.Snapshot)
			save := func(int) {
				if err := s.snapshot(snap, nil); err != nil {
					t.Fatalf("snapshot: %v", err)
				}
				if _, err := d.Save(snap); err != nil {
					t.Fatalf("Save: %v", err)
				}
			}
			save(0)
			lo, hi := ^uint64(0), uint64(0)
			for i := 0; i < saves; i++ {
				_, bytes := countAllocs(1, save)
				lo, hi = min(lo, bytes), max(hi, bytes)
				if bytes >= saveBudget {
					t.Errorf("%s: save %d allocated %d bytes, budget %d", p.Name, i+1, bytes, saveBudget)
				}
			}
			t.Logf("%s: %d memory frames; each of %d saves allocated %d–%d bytes", p.Name, len(snap.CPU.Mem.Frames), saves, lo, hi)
		})
	}
}

// allocSink keeps TestStepAllocationsCounted's allocations on the heap.
var allocSink []byte

// TestStepAllocationsCounted checks the counting against a known count
// before TestStepAllocations' silence is trusted: a window in which
// every other step also allocates 16 bytes must count at least that
// many allocations and bytes, and must break the budget.
func TestStepAllocationsCounted(t *testing.T) {
	if testing.Short() {
		t.Skip("steady-state warmup is too slow for -short")
	}
	const n = 20_000
	m := steadyMachine(t, TimesharingResearch)
	allocs, bytes := countAllocs(n, func(i int) {
		m.StepInstruction()
		if i%2 == 0 {
			allocSink = make([]byte, 16)
		}
	})
	if allocs < n/2 || bytes < 16*n/2 {
		t.Errorf("%d known allocations of 16 bytes counted as %d allocations, %d bytes", n/2, allocs, bytes)
	}
	if kilo := float64(n) / 1000; float64(allocs) <= allocsPerKilo*kilo {
		t.Errorf("an allocation every other instruction (%d in %d) fits the budget of %d per 1,000", allocs, n, allocsPerKilo)
	}
}

// steadyMachine prepares p's session for steadyCycles and runs it past
// boot.
func steadyMachine(t *testing.T, p Profile) *cpu.Machine {
	t.Helper()
	s, err := Prepare(p, steadyCycles, cpu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res := s.Run(steadyWarmup); res.Err != nil || res.Halted {
		t.Fatalf("warmup: halted=%v err=%v", res.Halted, res.Err)
	}
	return s.Machine()
}

// countAllocs runs step(0) … step(n-1) and returns the heap allocations
// and bytes the process made meanwhile.
func countAllocs(n int, step func(i int)) (allocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		step(i)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}
