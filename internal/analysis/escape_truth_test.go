package analysis

import (
	"fmt"
	"go/ast"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestEscapeGroundTruth confronts the hotpath analyzer's composite-literal
// escape verdicts with the compiler's own escape analysis (`go build
// -gcflags=-m`) over the real hot set, and fails on drift in either
// direction:
//
//   - understated (the hole): the analyzer claims a literal stays on the
//     stack — a slice literal ranged over in place — but the compiler
//     reports "escapes to heap" at that position. The perf contract would
//     be silently blessing a per-cycle allocation. Zero tolerance.
//
//   - overstated (the noise): the analyzer claims a literal allocates but
//     the compiler proves "does not escape". The analyzer is documented as
//     deliberately coarser than the compiler (it has no interprocedural
//     leak analysis), so known over-approximations are pinned below with a
//     reason; the test fails when a NEW one appears (decide: fix the code,
//     or pin it) and when a pinned one disappears (the pin is stale —
//     drop it). Either way the diff against ground truth stays current.
//
// Both sides anchor their verdict at the same position — the literal, or
// the `&` of an escaping &T{…} — which is what makes the diff exact: the
// analyzer through compositeVerdict (the same judgment checkHotComposite
// reports from), the compiler through its `T{...} escapes to heap` /
// `T{...} does not escape` diagnostics. Line-allowed sites are included:
// an //vaxlint:allow hotpath note justifies an allocation, it does not
// dispute one, so the ground truth keeps the note honest too.
func TestEscapeGroundTruth(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go build -gcflags=-m")
	}
	root, pkgs := loadModule(t)
	var diags []Diagnostic
	pass := &Pass{Analyzer: HotPath, Fset: pkgs[0].Fset, All: pkgs, diags: &diags, allows: buildAllowIndex(pkgs)}
	hs := buildHotSet(pass)

	type claim struct {
		verdict escVerdict
		kind    string
		chain   string
	}
	claims := make(map[string]claim) // "rel/file.go:line:col" → verdict
	hotPkgs := make(map[string]bool)
	for _, n := range hs.nodes {
		hotPkgs[n.pkg.Path] = true
		hs.scanHot(n, func(stack []ast.Node, node ast.Node) bool {
			lit, ok := node.(*ast.CompositeLit)
			if !ok {
				return true
			}
			var parent ast.Node
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			v := compositeVerdict(n.pkg.Info, parent, lit)
			if v.verdict == escSilent {
				return true
			}
			p := pass.Fset.Position(v.truthPos)
			key := fmt.Sprintf("%s:%d:%d", relTo(root, p.Filename), p.Line, p.Column)
			claims[key] = claim{v.verdict, v.kind, n.chain}
			return true
		})
	}
	if len(claims) == 0 {
		t.Fatal("no composite-literal verdicts anywhere in the hot set; the hot-set walk or the verdict function is broken")
	}

	truth := compilerEscapes(t, root, sortedKeys(hotPkgs))

	var drift []string
	for _, pos := range sortedKeys(claims) {
		c := claims[pos]
		escapes, seen := truth[pos]
		switch c.verdict {
		case escStack:
			if seen && escapes {
				drift = append(drift, fmt.Sprintf(
					"%s: analyzer claims stack (%s literal ranged in place; %s) but the compiler reports it escapes to heap",
					pos, c.kind, c.chain))
			}
		case escHeap:
			switch {
			case !seen:
				drift = append(drift, fmt.Sprintf(
					"%s: analyzer claims heap (%s literal; %s) but the compiler emitted no escape verdict at this position — the anchor positions have diverged",
					pos, c.kind, c.chain))
			case !escapes && knownOverApprox[pos] == "":
				drift = append(drift, fmt.Sprintf(
					"%s: analyzer claims heap (%s literal; %s) but the compiler proves it does not escape — a new over-approximation; fix the site (and its allow note) or pin it in knownOverApprox with a reason",
					pos, c.kind, c.chain))
			}
		}
	}
	for _, pos := range sortedKeys(knownOverApprox) {
		c, ok := claims[pos]
		if !ok || c.verdict != escHeap {
			drift = append(drift, fmt.Sprintf(
				"%s: pinned over-approximation no longer has a heap verdict in the hot set — drop the stale knownOverApprox entry",
				pos))
			continue
		}
		if escapes, seen := truth[pos]; seen && escapes {
			drift = append(drift, fmt.Sprintf(
				"%s: pinned as compiler-proven stack-resident, but the compiler now reports it escapes to heap — drop the pin; the analyzer's verdict is exact here",
				pos))
		}
	}
	if len(drift) > 0 {
		t.Errorf("hotpath escape verdicts drifted from go build -gcflags=-m ground truth:\n  %s",
			strings.Join(drift, "\n  "))
	}
}

// knownOverApprox pins every hot-set site where the analyzer's coarse
// judgment says heap but the compiler proves the allocation away. Keys are
// module-root-relative "file:line:col" of the verdict anchor; values say
// why the compiler wins. An entry here still carries its //vaxlint:allow
// note in the source — the analyzer keeps flagging the shape — but the
// ground truth records that the per-cycle cost the note tolerates does
// not, with the current compiler, actually exist.
var knownOverApprox = map[string]string{
	"internal/cpu/exec.go:132:44": "arith-trap parameter slice: deliverException copies the words into machine state and never leaks the slice, so the backing array stays on the caller's stack",
	"internal/cpu/exec.go:307:44": "page-fault parameter slice: same deliverException sink as exec.go:132",
	"internal/cpu/exec.go:312:44": "memory-management-fault parameter slice: same deliverException sink as exec.go:132",
}

// escLine matches one compiler escape diagnostic:
//
//	internal/cpu/exec.go:105:44: []uint32{...} does not escape
var escLine = regexp.MustCompile(`^(.+\.go:\d+:\d+): .* (escapes to heap|does not escape)$`)

// compilerEscapes builds `pkgs` with -gcflags=-m from the module root and
// indexes every escape verdict by "file:line:col" (root-relative, the
// compiler's own rendering). true = escapes to heap. When one position
// carries several verdicts (generic instantiations), escaping wins: the
// analyzer's stack claim must hold for every instantiation.
func compilerEscapes(t *testing.T, root string, pkgs []string) map[string]bool {
	t.Helper()
	cmd := exec.Command("go", append([]string{"build", "-gcflags=-m"}, pkgs...)...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	truth := make(map[string]bool)
	for _, line := range strings.Split(string(out), "\n") {
		m := escLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		escapes := m[2] == "escapes to heap"
		truth[m[1]] = truth[m[1]] || escapes
	}
	if len(truth) == 0 {
		t.Fatalf("go build -gcflags=-m over %v produced no escape diagnostics; the -m output format has changed", pkgs)
	}
	return truth
}

// relTo renders filename relative to root when it lives under it, matching
// the compiler's root-relative rendering of positions.
func relTo(root, filename string) string {
	rel, err := filepath.Rel(root, filename)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filename
	}
	return rel
}

// sortedKeys renders a map's keys in a deterministic reporting order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
