// Command vaxlint statically proves the simulator's invariants: opcode
// table ↔ execute-microroutine registration, paper headline numbers ↔
// internal/paper, the single-threaded Machine/probe contract, determinism
// of the measurement core (no wall clock, no global rand, no map
// iteration reachable from the simulation loop, serializers or
// checkpoint paths), typed boundary errors, and exhaustive enum switches
// — plus the hot-path performance contract (hotpath). Two contracts are
// not proved here but checked at run time: cycle attribution against the
// machine's own counters (DESIGN.md §12), and the farm's concurrency by
// its tests under the race detector (DESIGN.md §14). vaxlint is a
// multichecker-style driver for the analyzers in internal/analysis and
// is part of the tier-1 verify (Makefile `check`); the suite runs with
// one goroutine per analyzer, findings merged into one deterministic
// position order.
//
// Usage:
//
//	go run ./cmd/vaxlint ./...                  # whole module (the normal form)
//	go run ./cmd/vaxlint -vet=false ./...       # skip the standard go vet passes
//	go run ./cmd/vaxlint -run determinism ./... # only the named analyzers
//	go run ./cmd/vaxlint -json ./...            # machine-readable findings
//	go run ./cmd/vaxlint -sarif ./...           # SARIF 2.1.0 log (CI code scanning)
//	go run ./cmd/vaxlint -allows ./...          # list every justified suppression
//	go run ./cmd/vaxlint -list                  # show the suite
//
// Contract:
//
//   - exit 0: the tree is clean — no analyzer reported a finding (and go
//     vet passed, unless -vet=false);
//   - exit 1: findings were reported (or go vet failed); with -json each
//     finding is one JSON object per line on stdout, of the form
//     {"file":...,"line":...,"col":...,"analyzer":...,"message":...},
//     findings only — vet output stays on stderr; with -sarif stdout is
//     one SARIF 2.1.0 log built from the same findings (emitted on exit
//     0 too, with an empty results array, so CI can upload it
//     unconditionally); -json and -sarif are mutually exclusive;
//   - exit 2: the load itself failed (bad pattern, unparseable or
//     untypeable source, unknown -run name): no findings were computed
//     and the tree's health is unknown.
//
// -allows is the audit view of the suppression layer: instead of running
// the analyzers it lists every //vaxlint:allow note in the load — one
// line per note, "file:line: analyzer[,analyzer]: reason" — sorted by
// file then line, so the set of accepted exceptions is reviewable as a
// whole and diffable between revisions. Exit 0 regardless of count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"

	"vax780/internal/analysis"
	"vax780/internal/cli"
)

// jsonDiag is the -json wire form of one finding.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// selectAnalyzers resolves a comma-separated -run spec against the
// suite. An unknown or empty name is an error that lists the valid
// names, so a typo exits 2 instead of silently running an empty (or
// wrong) selection.
func selectAnalyzers(spec string, all []*analysis.Analyzer) ([]*analysis.Analyzer, error) {
	byName := make(map[string]*analysis.Analyzer, len(all))
	names := make([]string, len(all))
	for i, a := range all {
		byName[a.Name] = a
		names[i] = a.Name
	}
	valid := strings.Join(names, ", ")
	var selected []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("empty analyzer name in -run %q; valid names: %s", spec, valid)
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q; valid names: %s", name, valid)
		}
		selected = append(selected, a)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("-run %q selected no analyzers; valid names: %s", spec, valid)
	}
	return selected, nil
}

func main() {
	runVet := flag.Bool("vet", true, "also run the standard `go vet` passes")
	list := flag.Bool("list", false, "list the analyzers and exit")
	runNames := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as one JSON object per line")
	sarifOut := flag.Bool("sarif", false, "emit a SARIF 2.1.0 log on stdout")
	allows := flag.Bool("allows", false, "list every //vaxlint:allow suppression and exit")
	flag.Parse()
	if *jsonOut && *sarifOut {
		cli.Exitf(2, "vaxlint", "-json and -sarif are mutually exclusive")
	}

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *runNames != "" {
		selected, err := selectAnalyzers(*runNames, analyzers)
		if err != nil {
			cli.Exitf(2, "vaxlint", "%v", err)
		}
		analyzers = selected
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	if *allows {
		pkgs, err := analysis.LoadModule(".", patterns)
		if err != nil {
			cli.Exitf(2, "vaxlint", "%v", err)
		}
		for _, e := range analysis.CollectAllows(pkgs) {
			fmt.Printf("%s:%d: %s: %s\n",
				e.Pos.Filename, e.Pos.Line, strings.Join(e.Analyzers, ","), e.Reason)
		}
		return
	}

	exitCode := 0
	if *runVet {
		vet := exec.Command("go", append([]string{"vet"}, patterns...)...)
		vet.Stdout = os.Stderr // keep stdout JSON-clean
		vet.Stderr = os.Stderr
		if err := vet.Run(); err != nil {
			exitCode = 1
		}
	}

	pkgs, err := analysis.LoadModule(".", patterns)
	if err != nil {
		cli.Exitf(2, "vaxlint", "%v", err)
	}
	diags, err := analysis.Run(analyzers, pkgs)
	if err != nil {
		cli.Exitf(2, "vaxlint", "%v", err)
	}
	findings := make([]jsonDiag, len(diags))
	for i, d := range diags {
		findings[i] = jsonDiag{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		}
	}
	switch {
	case *sarifOut:
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(sarifFrom(analyzers, findings))
	case *jsonOut:
		enc := json.NewEncoder(os.Stdout)
		for _, f := range findings {
			_ = enc.Encode(f)
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		exitCode = 1
	}
	os.Exit(exitCode)
}
