package paper

import (
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// headlines maps each of the paper's headline numbers — the CPI, the
// six Table 8 column marginals and the Table 3 per-instruction rates —
// to the name that owns it. The values are read from the declarations,
// so a re-reconstructed cell moves the check with it.
var headlines = map[float64]string{
	CPI:                 "paper.CPI",
	Table8Total.Compute: "paper.Table8Total.Compute",
	Table8Total.Read:    "paper.Table8Total.Read",
	Table8Total.RStall:  "paper.Table8Total.RStall",
	Table8Total.Write:   "paper.Table8Total.Write",
	Table8Total.WStall:  "paper.Table8Total.WStall",
	Table8Total.IBStall: "paper.Table8Total.IBStall",
	Table3FirstSpecs:    "paper.Table3FirstSpecs",
	Table3OtherSpecs:    "paper.Table3OtherSpecs",
	Table3BranchDisps:   "paper.Table3BranchDisps",
}

// tablePrecision reports whether a float literal is spelled with the
// tables' three-decimal precision. A two-decimal 0.72 is a probability, a
// three-decimal 0.720 is the IB-stall marginal; requiring the tables'
// spelling keeps coincidental thresholds out of the check.
func tablePrecision(lit string) bool {
	if strings.ContainsAny(lit, "eEpP") {
		return true // exponent form: trust the value match
	}
	i := strings.IndexByte(lit, '.')
	return i >= 0 && len(lit)-i-1 >= 3
}

// paperCopies returns one line per float literal in src that spells a
// headline number.
func paperCopies(name string, src []byte) []string {
	fset := token.NewFileSet()
	file := fset.AddFile(name, -1, len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, 0)
	var out []string
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return out
		}
		if tok != token.FLOAT || !tablePrecision(lit) {
			continue
		}
		v, err := strconv.ParseFloat(lit, 64)
		if err != nil {
			continue
		}
		if owner, ok := headlines[v]; ok {
			out = append(out, fmt.Sprintf("%s: %s hard-coded; use %s", fset.Position(pos), lit, owner))
		}
	}
}

// TestNoPaperNumberCopies keeps the paper's headline numbers in one
// place: no .go file of the module outside this package may spell one,
// tests included, so a recalibration cannot leave a stale copy behind.
// Nested modules (perfbench) have their own go.mod and are not scanned.
func TestNoPaperNumberCopies(t *testing.T) {
	if got := paperCopies("probe.go", []byte("const c = 10.593 + 0.72")); len(got) != 1 {
		t.Fatalf("scanning a known copy of CPI found %d copies, want 1: %v", len(got), got)
	}

	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root: %v", err)
	}
	here, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path == here || name == "testdata" || (path != root && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		scanned++
		rel, _ := filepath.Rel(root, path)
		for _, c := range paperCopies(rel, src) {
			t.Error(c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Fatal("no .go file scanned outside internal/paper")
	}
}
