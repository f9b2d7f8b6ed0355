package farm

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"vax780/internal/checkpoint"
	"vax780/internal/core"
	"vax780/internal/workload"
)

// Durable layout under Config.Root:
//
//	farm.json                 manifest: the Config, for bare resume
//	inst-00042/ckpt-*.vaxck   checkpoint generations while running
//	inst-00042/result.upc     merged-ready histogram once completed
//	inst-00042/result.json    completion metadata (cycles, counters)
//
// Results are written atomically with checkpoint.WriteFile (temp file,
// fsync, rename; a stale temp file is pruned by the instance's next
// checkpoint), and result.upc is authoritative: its presence marks the
// instance completed, after which the checkpoint generations are
// deleted to bound disk use. Classification on resume needs no lock
// file — a crash between rename and generation cleanup just leaves
// harmless stale generations behind.

const manifestName = "farm.json"

func instanceDir(root string, id int) string {
	if root == "" {
		return ""
	}
	return filepath.Join(root, fmt.Sprintf("inst-%05d", id))
}

// resultMeta is the completion record next to the histogram.
type resultMeta struct {
	Profile  string
	Seed     int64
	Cycles   uint64
	Counters *workload.Counters
}

// persistResult records a completed instance's histogram, counters and
// metadata in its durable directory, then drops the now-redundant
// checkpoint generations. A nil dir (memory-only farm) is a no-op.
func persistResult(dir string, res *workload.Result) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	if err := checkpoint.WriteFile(filepath.Join(dir, "result.upc"), func(w io.Writer) error {
		return res.Hist.Save(w)
	}); err != nil {
		return fmt.Errorf("farm: persisting histogram: %w", err)
	}
	meta := resultMeta{
		Profile:  res.Profile.Name,
		Seed:     res.Profile.Seed,
		Cycles:   res.Cycles,
		Counters: &res.Counters,
	}
	if err := checkpoint.WriteFile(filepath.Join(dir, "result.json"), func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&meta)
	}); err != nil {
		return fmt.Errorf("farm: persisting metadata: %w", err)
	}
	clearGenerations(dir)
	return nil
}

// clearGenerations best-effort deletes the checkpoint generations of a
// completed instance. Failure is harmless: result.upc already marks the
// instance done, stale generations just cost disk.
func clearGenerations(dir string) {
	d, err := checkpoint.Open(dir, 0)
	if err != nil {
		return
	}
	gens, err := d.Generations()
	if err != nil {
		return
	}
	for _, g := range gens {
		os.Remove(g)
	}
}

// loadResult loads a persisted instance result. All three returns nil
// means "not completed" (fresh or mid-run); a corrupt or half-written
// result also classifies as not completed, so the instance simply
// re-runs — determinism makes the re-run equivalent. So does a
// result.json without counters, written before results carried them.
func loadResult(dir string) (*core.Histogram, *resultMeta, error) {
	if dir == "" {
		return nil, nil, nil
	}
	hf, err := os.Open(filepath.Join(dir, "result.upc"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("farm: reading persisted result: %w", err)
	}
	defer hf.Close()
	hist, err := core.LoadHistogram(hf)
	if err != nil {
		return nil, nil, nil // corrupt: re-run the instance
	}
	mf, err := os.ReadFile(filepath.Join(dir, "result.json"))
	if err != nil {
		return nil, nil, nil // half-persisted: re-run the instance
	}
	var meta resultMeta
	if err := json.Unmarshal(mf, &meta); err != nil || meta.Counters == nil {
		return nil, nil, nil
	}
	return hist, &meta, nil
}

// writeManifest records a new farm's Config at the root (atomically), so
// a bare `vaxfarm -resume -checkpoint root` can rebuild the identical
// farm. A root that already holds a manifest holds an earlier run, which
// only Resume continues: it is refused with *RootInUse before anything is
// written, or with checkFormat's error when no Resume can continue it.
func writeManifest(root string, cfg Config) error {
	path := filepath.Join(root, manifestName)
	if _, err := os.Stat(path); err == nil {
		if err := checkFormat(root); err != nil {
			return err
		}
		return &RootInUse{Root: root}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("farm: manifest: %w", err)
	}
	if err := os.MkdirAll(root, 0o777); err != nil {
		return err
	}
	if err := checkpoint.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(&cfg)
	}); err != nil {
		return fmt.Errorf("farm: writing manifest: %w", err)
	}
	return nil
}

// checkFormat refuses a root whose instance directories hold checkpoints
// of another format version, such as an earlier build wrote: no Resume
// can continue the run under it. The error wraps checkpoint.ErrBadVersion.
// checkpoint.CheckVersion passes anything that is not a directory of
// generations, farm.json included.
func checkFormat(root string) error {
	ents, _ := os.ReadDir(root)
	for _, e := range ents {
		if err := checkpoint.CheckVersion(filepath.Join(root, e.Name())); err != nil {
			return fmt.Errorf("farm: %s cannot resume; start the run afresh under another root: %w", root, err)
		}
	}
	return nil
}

// Resume rebuilds a farm from the manifest under root. Completed
// instances load their persisted results without re-running; interrupted
// ones continue from their newest checkpoint generation; instances that
// never started run fresh. A root checkFormat refuses is refused before
// anything runs. Scripted kills are not replayed — chaos is an input to a
// run, not a property of the farm.
func Resume(root string) (*Farm, error) {
	data, err := os.ReadFile(filepath.Join(root, manifestName))
	if err != nil {
		return nil, fmt.Errorf("farm: no resumable farm under %s: %w", root, err)
	}
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("farm: manifest under %s does not parse: %w", root, err)
	}
	if err := checkFormat(root); err != nil {
		return nil, err
	}
	cfg.Root = root
	cfg.Kills = nil
	f, err := New(cfg)
	if f != nil {
		f.resumed = true
	}
	return f, err
}
