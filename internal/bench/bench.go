// Package bench is the ledger behind BENCH_farm.json: an append-only
// record of the fleet supervisor's aggregate throughput (merged cycles
// per wall second across a worker pool, with rescue and shed counts and
// the host's core count), one entry per `make bench` run, so a
// regression shows up as a diff in a committed file, not as a vague
// feeling that the farm got slower. The stepping rate of the five
// profiles is perfbench's, which records its host and spread.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"vax780/internal/checkpoint"
)

// FarmResult is the measured aggregate throughput of one fleet sweep
// (cmd/vaxfarm semantics): merged cycles across every completed instance
// divided by wall-clock, next to the outcome counts that say how much of
// the fleet the wall-clock actually covered. A throughput "win" bought by
// shedding instances is visible as such.
type FarmResult struct {
	Instances    int     `json:"instances"`
	Workers      int     `json:"workers"`
	Seconds      float64 `json:"seconds"`
	CyclesMerged uint64  `json:"cycles_merged"`
	// CyclesPerSec is the aggregate fleet throughput: merged cycles per
	// wall second across all workers (instances × per-machine rate, less
	// supervision overhead).
	CyclesPerSec float64 `json:"cycles_per_sec"`
	Completed    int     `json:"completed"`
	Rescued      int     `json:"rescued"`
	Shed         int     `json:"shed"`
	WorkersLost  int     `json:"workers_lost"`
}

// FarmEntry is one `vaxbench` run. NumCPU and GOMAXPROCS record what
// the merged rate came from: a fleet rate means little without the
// number of cores it was spread over.
type FarmEntry struct {
	Date       string     `json:"date"` // YYYY-MM-DD
	GoVersion  string     `json:"go_version"`
	NumCPU     int        `json:"num_cpu,omitempty"`
	GOMAXPROCS int        `json:"gomaxprocs,omitempty"`
	Budget     uint64     `json:"cycle_budget"` // per instance
	Chaos      string     `json:"chaos,omitempty"`
	Farm       FarmResult `json:"farm"`
}

// FarmLedger is the whole committed BENCH_farm.json file.
type FarmLedger struct {
	Entries []FarmEntry `json:"entries"`
}

// LoadFarm reads the farm-throughput ledger at path; a missing file is
// an empty ledger, any other failure (including malformed JSON) is an
// error so a corrupted ledger is never silently truncated to one entry.
func LoadFarm(path string) (*FarmLedger, error) {
	var l FarmLedger
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return &l, nil
	}
	if err != nil {
		return nil, fmt.Errorf("bench: read ledger: %w", err)
	}
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("bench: parse ledger %s: %w", path, err)
	}
	return &l, nil
}

// Append adds one farm sweep to the ledger.
func (l *FarmLedger) Append(e FarmEntry) { l.Entries = append(l.Entries, e) }

// Write rewrites the ledger at path, indented and newline-terminated so
// the committed file diffs line by line. The replacement is atomic: an
// interrupted run leaves the previous file whole, never a truncated one
// LoadFarm would refuse.
func (l *FarmLedger) Write(path string) error {
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode ledger: %w", err)
	}
	data = append(data, '\n')
	write := func(w io.Writer) error { _, err := w.Write(data); return err }
	if err := checkpoint.WriteFile(path, write); err != nil {
		return fmt.Errorf("bench: write ledger: %w", err)
	}
	return nil
}
