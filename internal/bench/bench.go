// Package bench is the ledger behind BENCH_farm.json and BENCH_lint.json:
// append-only records of what two parts of the reproduction cost, one
// entry per `make bench` or `make lint-bench` run. BENCH_farm.json holds
// the fleet supervisor's aggregate throughput (merged cycles per wall
// second across a worker pool, with rescue and shed counts),
// BENCH_lint.json the analyzer suite's wall time and findings per
// analyzer, so a regression in either shows up as a diff in a committed
// file, not as a vague feeling that CI got slower. The stepping rate of
// the five profiles is perfbench's, which records its host and spread.
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

// FarmEntry is one `vaxbench -farm` run.
type FarmEntry struct {
	Date      string     `json:"date"` // YYYY-MM-DD
	GoVersion string     `json:"go_version"`
	Budget    uint64     `json:"cycle_budget"` // per instance
	Chaos     string     `json:"chaos,omitempty"`
	Farm      FarmResult `json:"farm"`
}

// AnalyzerCost is the measured cost of one vaxlint analyzer over the
// whole module: wall time for its passes (the shared load is amortized
// across the suite and reported separately) and how many findings it
// produced — a findings count that quietly drops to zero is as much a
// regression signal as a runtime that doubles.
type AnalyzerCost struct {
	Name     string  `json:"name"`
	Seconds  float64 `json:"seconds"`
	Findings int     `json:"findings"`
}

// LintEntry is one `make lint-bench` run: the one-time module load cost,
// the wall time of the whole suite run the way `make check` runs it
// (analysis.Run fans the analyzers out in parallel, so on a multi-core
// host this lands near the slowest analyzer, not the sum; on one core
// it records the serial cost), plus the per-analyzer trajectory.
type LintEntry struct {
	Date         string         `json:"date"` // YYYY-MM-DD
	GoVersion    string         `json:"go_version"`
	Analyzers    int            `json:"analyzers"`
	LoadSeconds  float64        `json:"load_seconds"`
	SuiteSeconds float64        `json:"suite_seconds,omitempty"`
	Costs        []AnalyzerCost `json:"costs"`
}

// LintLedger is the whole committed BENCH_lint.json file.
type LintLedger struct {
	Entries []LintEntry `json:"entries"`
}

// FarmLedger is the whole committed BENCH_farm.json file.
type FarmLedger struct {
	Entries []FarmEntry `json:"entries"`
}

// LoadFarm reads the farm-throughput ledger at path; a missing file is
// an empty ledger, any other failure (including malformed JSON) is an
// error so a corrupted ledger is never silently truncated to one entry.
func LoadFarm(path string) (*FarmLedger, error) { return loadLedger[FarmLedger](path) }

// LoadLint reads the analyzer-cost ledger at path under the same
// missing-file and corruption rules as LoadFarm.
func LoadLint(path string) (*LintLedger, error) { return loadLedger[LintLedger](path) }

// Append adds one farm sweep to the ledger.
func (l *FarmLedger) Append(e FarmEntry) { l.Entries = append(l.Entries, e) }

// Append adds one suite run to the ledger.
func (l *LintLedger) Append(e LintEntry) { l.Entries = append(l.Entries, e) }

// Write rewrites the farm ledger at path, indented and newline-terminated
// so the committed file diffs line by line.
func (l *FarmLedger) Write(path string) error { return writeLedger(path, l) }

// Write rewrites the lint ledger at path, same conventions as FarmLedger.
func (l *LintLedger) Write(path string) error { return writeLedger(path, l) }

func loadLedger[L any](path string) (*L, error) {
	var l L
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

// writeLedger replaces the ledger atomically: an interrupted run leaves
// the previous file whole, never a truncated one loadLedger would refuse.
func writeLedger(path string, l any) error {
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
