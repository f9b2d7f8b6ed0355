package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Escape hatch. A finding can be suppressed in source with
//
//	//vaxlint:allow <analyzer>[,<analyzer>...] -- <justification>
//
// either trailing on the offending line or standing alone on the line
// directly above it. The justification is mandatory: an allow without
// one is itself a finding (the build stays red), so every suppression in
// the tree carries its reason next to the code it excuses. Unknown
// analyzer names are findings too — a typo must not silently allow
// nothing.

const allowPrefix = "//vaxlint:allow"

// allowNote is one parsed //vaxlint:allow comment.
type allowNote struct {
	analyzers []string
	reason    string
	pos       token.Pos
	raw       string
}

// allowKey locates a note by file and line.
type allowKey struct {
	file string
	line int
}

// allowIndex maps every source line carrying (or directly below) an
// allow comment to its note. Built once per Run over every package of
// the load.
type allowIndex map[allowKey]*allowNote

// covers reports whether the note names the analyzer.
func (n *allowNote) covers(analyzer string) bool {
	for _, a := range n.analyzers {
		if a == analyzer {
			return true
		}
	}
	return false
}

// buildAllowIndex scans the comments of pkgs for allow notes. A note is
// indexed at its own line (suppressing trailing-comment findings) and,
// when the comment stands alone on its line, at the line below
// (suppressing findings on the statement it annotates). A trailing note
// excuses its own line only: it must not leak onto the next declaration.
func buildAllowIndex(pkgs []*Package) allowIndex {
	idx := make(allowIndex)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			var code map[int]bool // built on the file's first note
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					if code == nil {
						code = codeLines(pkg.Fset, f)
					}
					note := parseAllow(c.Text, c.Pos())
					p := pkg.Fset.Position(c.Pos())
					idx[allowKey{p.Filename, p.Line}] = note
					if !code[p.Line] {
						idx[allowKey{p.Filename, p.Line + 1}] = note
					}
				}
			}
		}
	}
	return idx
}

// codeLines returns the lines of f on which some syntax node starts or
// ends. Code sharing a line with a comment always puts a node boundary
// there, so a comment on any other line stands alone.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	tf := fset.File(f.Pos())
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup:
			return false
		}
		lines[tf.Line(n.Pos())] = true
		lines[tf.Line(n.End())] = true
		return true
	})
	return lines
}

// parseAllow splits "//vaxlint:allow a,b -- reason" into its parts. A
// missing "--" or empty reason leaves reason empty, which validation
// reports.
func parseAllow(text string, pos token.Pos) *allowNote {
	note := &allowNote{pos: pos, raw: text}
	rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
	names := rest
	if i := strings.Index(rest, "--"); i >= 0 {
		names = rest[:i]
		note.reason = strings.TrimSpace(rest[i+2:])
	}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n != "" {
			note.analyzers = append(note.analyzers, n)
		}
	}
	return note
}

// validateAllows reports malformed allow notes: no justification, no
// analyzer names, or names outside the known set. Reported under the
// pseudo-analyzer "allow" so `make check` fails on an annotation that
// excuses nothing or excuses it without saying why.
func validateAllows(idx allowIndex, known map[string]bool, fset *token.FileSet, diags *[]Diagnostic) {
	seen := make(map[*allowNote]bool)
	for _, note := range idx {
		if seen[note] {
			continue
		}
		seen[note] = true
		report := func(format string, args ...any) {
			*diags = append(*diags, Diagnostic{
				Pos:      fset.Position(note.pos),
				Analyzer: "allow",
				Message:  fmt.Sprintf(format, args...),
			})
		}
		if len(note.analyzers) == 0 {
			report("vaxlint:allow names no analyzer: %q", note.raw)
		}
		for _, a := range note.analyzers {
			if !known[a] {
				report("vaxlint:allow names unknown analyzer %q", a)
			}
		}
		if note.reason == "" {
			report("vaxlint:allow lacks a justification; write //vaxlint:allow <analyzer> -- <reason>")
		}
	}
}

// Allowed reports whether a finding of this pass's analyzer at pos is
// suppressed by a justified allow note. Analyzers that aggregate
// findings across functions (determinism) call it at collection time so
// an excused site never enters a fact, and the hot-set builder
// (hotset.go) calls it to prune cold functions; Reportf calls it for
// everyone else. Notes without a justification never suppress — they
// are themselves findings.
func (p *Pass) Allowed(pos token.Pos) bool {
	if p.allows == nil {
		return false
	}
	position := p.Fset.Position(pos)
	note, ok := p.allows[allowKey{position.Filename, position.Line}]
	if !ok {
		return false
	}
	return note.covers(p.Analyzer.Name) && note.reason != ""
}

// AllowEntry is one //vaxlint:allow note of the load, as listed by
// `vaxlint -allows`: the audit trail of every suppression in one place.
type AllowEntry struct {
	Pos       token.Position
	Analyzers []string
	Reason    string
}

// CollectAllows scans pkgs for allow notes and returns them sorted by
// file, then line — a deterministic listing independent of map order.
func CollectAllows(pkgs []*Package) []AllowEntry {
	var out []AllowEntry
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, allowPrefix) {
						continue
					}
					note := parseAllow(c.Text, c.Pos())
					out = append(out, AllowEntry{
						Pos:       pkg.Fset.Position(c.Pos()),
						Analyzers: note.analyzers,
						Reason:    note.reason,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}
