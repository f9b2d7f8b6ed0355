package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"vax780/internal/ucode"
)

// Merge determinism is what lets the fleet supervisor (internal/farm)
// shard runs across workers at all: the composite of N complete runs
// must not depend on which worker summed which runs, or in what order.
// The property under test: for histograms h1..hN produced by real
// monitor counting, folding them into one sum via Add is invariant under
// any partition of the runs into W partial sums and any permutation
// within and across them — bit-identical through Save. The farm
// adds each completed run to its profile's sum in whatever order the
// completions arrive: one partial sum, in a random order.

// randomRunHist produces one run's histogram by driving a real Monitor
// with a random event stream.
func randomRunHist(r *rand.Rand) *Histogram {
	mo := NewMonitor()
	mo.Start()
	for e := 0; e < 200; e++ {
		upc := uint16(r.Intn(ucode.StoreSize))
		n := uint64(r.Intn(40) + 1)
		if r.Intn(3) == 0 {
			mo.Stall(upc, n)
		} else {
			mo.Count(upc, n)
		}
	}
	return mo.Snapshot()
}

func saveBytes(t *testing.T, h *Histogram) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := h.Save(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestPropertyMergePartitionAndOrderInvariant(t *testing.T) {
	f := func(seed int64, workers uint8) bool {
		r := rand.New(rand.NewSource(seed))
		w := int(workers%7) + 1
		n := r.Intn(12) + w

		runs := make([]*Histogram, n)
		for i := range runs {
			runs[i] = randomRunHist(r)
		}

		// Reference: single-machine order, one accumulator.
		single := &Histogram{}
		for _, h := range runs {
			single.Add(h)
		}

		// Assign runs to W partial sums in a random interleaving
		// (workers complete in arbitrary order), then merge the partial
		// sums in a random order.
		locals := make([]*Histogram, w)
		for i := range locals {
			locals[i] = &Histogram{}
		}
		for _, i := range r.Perm(n) {
			locals[r.Intn(w)].Add(runs[i])
		}
		merged := &Histogram{}
		for _, wi := range r.Perm(w) {
			merged.Add(locals[wi])
		}

		return bytes.Equal(saveBytes(t, single), saveBytes(t, merged))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
