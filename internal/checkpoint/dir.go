package checkpoint

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Dir manages a directory of snapshot generations. Each Save writes one
// file named after the snapshot's cycle count, atomically: the bytes go to
// a temporary file in the same directory, are synced, and the file is
// renamed into place — a crash mid-write leaves a .tmp file (ignored by
// the loader and cleaned on the next Save), never a half-written
// generation under the real name. The newest keep generations are
// retained; older ones are pruned after a successful Save, so the
// directory always holds at least one complete generation once any Save
// has succeeded.
type Dir struct {
	path string
	keep int
}

// DefaultKeep is the number of snapshot generations retained when the
// caller does not choose.
const DefaultKeep = 3

const (
	snapSuffix = ".vaxck"
	tmpSuffix  = ".tmp"
)

// ErrNoSnapshot reports a checkpoint directory with no loadable snapshot.
var ErrNoSnapshot = errors.New("no usable snapshot")

// Open prepares a checkpoint directory, creating it if needed. keep <= 0
// selects DefaultKeep.
func Open(path string, keep int) (*Dir, error) {
	if keep <= 0 {
		keep = DefaultKeep
	}
	if err := os.MkdirAll(path, 0o777); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Dir{path: path, keep: keep}, nil
}

// name returns the generation filename for a snapshot at the given cycle.
// Zero-padded so lexical order is cycle order.
func name(cycle uint64) string {
	return fmt.Sprintf("ckpt-%020d%s", cycle, snapSuffix)
}

// Save writes one snapshot generation atomically and prunes old
// generations (and stale temp files) beyond the retention count. It
// returns the path of the written generation.
func (d *Dir) Save(s *Snapshot) (string, error) {
	final := filepath.Join(d.path, name(s.Meta.Cycle))
	if err := WriteFile(final, func(w io.Writer) error { return Encode(w, s) }); err != nil {
		return "", err
	}
	d.prune()
	return final, nil
}

// WriteFile writes path atomically: write fills a temporary file in the
// same directory, named with the .tmp suffix, which is synced and then
// renamed to path. A crash mid-write leaves a .tmp file — which the next
// Save into that directory prunes — never a half-written file under
// path. write's own error is returned as is.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*"+tmpSuffix)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := write(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	// CreateTemp makes the file 0600; give it the mode os.WriteFile(path,
	// data, 0o644) would, since ledgers and tables are written here too.
	err = tmp.Chmod(0o644)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Generations returns the snapshot files present, oldest first. Temp
// files from interrupted writes are excluded.
func (d *Dir) Generations() ([]string, error) {
	gens, _, err := d.scan()
	return gens, err
}

// scan lists the directory once: the snapshot generations, oldest first,
// and the temp files interrupted writes left.
func (d *Dir) scan() (gens, tmps []string, err error) {
	ents, err := os.ReadDir(d.path)
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: %w", err)
	}
	for _, e := range ents {
		switch name := e.Name(); {
		case strings.HasSuffix(name, tmpSuffix):
			tmps = append(tmps, filepath.Join(d.path, name))
		case !e.IsDir() && strings.HasSuffix(name, snapSuffix):
			gens = append(gens, filepath.Join(d.path, name))
		}
	}
	sort.Strings(gens)
	return gens, tmps, nil
}

// prune removes generations beyond the newest keep, plus any stale temp
// files, from one listing of the directory. Prune failures are ignored:
// retention is a disk-space courtesy, not a correctness property.
func (d *Dir) prune() {
	gens, tmps, err := d.scan()
	if err != nil {
		return
	}
	for i := 0; i+d.keep < len(gens); i++ {
		os.Remove(gens[i])
	}
	for _, tmp := range tmps {
		os.Remove(tmp)
	}
}

// LoadLatest loads the newest decodable snapshot, falling back through
// older generations when the newest is corrupt (a crash can damage at
// most the generation being written; its predecessors are immutable).
// It returns the snapshot and the path it came from. When nothing loads,
// the error wraps ErrNoSnapshot and lists what was wrong with each
// candidate.
func (d *Dir) LoadLatest() (*Snapshot, string, error) {
	gens, err := d.Generations()
	if err != nil {
		return nil, "", err
	}
	var failures []string
	for i := len(gens) - 1; i >= 0; i-- {
		f, err := os.Open(gens[i])
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", gens[i], err))
			continue
		}
		s, err := Decode(f)
		f.Close()
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", gens[i], err))
			continue
		}
		return s, gens[i], nil
	}
	if len(failures) == 0 {
		return nil, "", fmt.Errorf("checkpoint: %w in %s", ErrNoSnapshot, d.path)
	}
	return nil, "", fmt.Errorf("checkpoint: %w in %s:\n  %s",
		ErrNoSnapshot, d.path, strings.Join(failures, "\n  "))
}
