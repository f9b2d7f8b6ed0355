package bench

import (
	"os"
	"path/filepath"
	"testing"
)

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_farm.json")

	// A missing ledger is empty, not an error.
	l, err := LoadFarm(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Entries) != 0 {
		t.Fatalf("fresh ledger has %d entries", len(l.Entries))
	}

	l.Append(FarmEntry{
		Date:       "2026-08-08",
		GoVersion:  "go1.0-test",
		NumCPU:     8,
		GOMAXPROCS: 4,
		Budget:     1000,
		Chaos:      "1@3",
		Farm: FarmResult{
			Instances: 10, Workers: 4, Seconds: 0.5, CyclesMerged: 10_000,
			CyclesPerSec: 20_000, Completed: 10, Rescued: 1, WorkersLost: 1,
		},
	})
	if err := l.Write(path); err != nil {
		t.Fatal(err)
	}

	// Append-on-reload: the second run lands after the first.
	l2, err := LoadFarm(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Append(FarmEntry{Date: "2026-08-09", GoVersion: "go1.0-test", Budget: 1000})
	if err := l2.Write(path); err != nil {
		t.Fatal(err)
	}
	l3, err := LoadFarm(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(l3.Entries) != 2 || l3.Entries[0].Date != "2026-08-08" || l3.Entries[1].Date != "2026-08-09" {
		t.Fatalf("ledger after two writes: %+v", l3.Entries)
	}
	if got := l3.Entries[0]; got.Chaos != "1@3" || got.NumCPU != 8 || got.GOMAXPROCS != 4 ||
		got.Farm.Rescued != 1 || got.Farm.CyclesPerSec != 20_000 {
		t.Fatalf("farm entry did not round-trip: %+v", got)
	}

	// A corrupted ledger is an error, never silently replaced.
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFarm(path); err == nil {
		t.Fatal("LoadFarm accepted a truncated ledger")
	}
}
