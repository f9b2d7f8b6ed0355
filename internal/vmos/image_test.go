package vmos_test

import (
	"fmt"
	"reflect"
	"testing"

	"vax780/internal/asm"
	"vax780/internal/vmos"
	"vax780/internal/workload"
)

// TestAddProcessReservedRunsAreZero loads every registry profile's
// generated programs, whose data regions are mostly reserved runs, and
// the same programs as images storing every byte: the two systems'
// memories must be equal.
func TestAddProcessReservedRunsAreZero(t *testing.T) {
	for _, p := range workload.All() {
		gen := vmos.NewSystem(vmos.Config{})
		stored := vmos.NewSystem(vmos.Config{})
		for i := 0; i < p.Procs; i++ {
			im, err := workload.Generate(workload.GenConfig{
				Mix: p.Mix, Blocks: p.Blocks, LoopIter: p.LoopIter,
				StringLen: p.StringLen, Seed: p.Seed + int64(i)*1000,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(im.Bytes) >= int(im.Size()) {
				t.Fatalf("%s[%d]: the image stores all %d bytes, reserves none", p.Name, i, im.Size())
			}
			flat := make([]byte, im.Size())
			im.Segments(func(addr uint32, b []byte) { copy(flat[addr-im.Org:], b) })
			name := fmt.Sprintf("%s-%d", p.Name, i)
			if _, err := gen.AddProcess(name, im); err != nil {
				t.Fatal(err)
			}
			if _, err := stored.AddProcess(name, &asm.Image{Org: im.Org, Bytes: flat, Labels: im.Labels}); err != nil {
				t.Fatal(err)
			}
		}
		a, b := gen.Machine().Mem.ExportState(), stored.Machine().Mem.ExportState()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: memory differs: %d frames from the generated images, %d from their flat bytes",
				p.Name, len(a.Frames), len(b.Frames))
		}
	}
}
