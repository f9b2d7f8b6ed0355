// Command vaxlat measures the per-opcode latency table — the cycle
// attribution oracle of DESIGN.md §16 — and writes it as latency.json
// (machine-readable, byte-deterministic) and LATENCY.md (the
// uops.info-style rendering) at the module root. Every registered opcode
// is single-stepped under each directed variant and every addressing mode
// through a TSTL; `go test -run TestLatency ./internal/experiments`
// fails when a fresh sweep differs from the committed files.
//
// Usage:
//
//	go run ./cmd/vaxlat    # rewrite LATENCY.md + latency.json at the module root
//
// Exit 0 when both files are written, 2 when the sweep or a write fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"path/filepath"

	"vax780/internal/checkpoint"
	"vax780/internal/cli"
	"vax780/internal/experiments"
)

func main() {
	flag.Parse()
	root, err := experiments.Root()
	if err != nil {
		cli.Exitf(2, "vaxlat", "%v", err)
	}
	tab, err := experiments.MeasureLatencyTable()
	if err != nil {
		cli.Exitf(2, "vaxlat", "%v", err)
	}
	js, err := tab.Marshal()
	if err != nil {
		cli.Exitf(2, "vaxlat", "%v", err)
	}
	for _, f := range []struct {
		name string
		data []byte
	}{{experiments.LatencyFile, js}, {experiments.LatencyDoc, tab.Render()}} {
		write := func(w io.Writer) error { _, err := w.Write(f.data); return err }
		if err := checkpoint.WriteFile(filepath.Join(root, f.name), write); err != nil {
			cli.Exitf(2, "vaxlat", "%v", err)
		}
	}
	fmt.Printf("vaxlat: wrote %s and %s (%d opcodes, %d modes)\n",
		experiments.LatencyFile, experiments.LatencyDoc, len(tab.Opcodes), len(tab.Modes))
}
