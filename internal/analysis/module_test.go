package analysis

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// module is the whole module, loaded once per test binary:
// TestEscapeGroundTruth and TestLatencyTruth both need it, the load takes
// about two seconds, and both only read the packages.
var module struct {
	once sync.Once
	pkgs []*Package
	err  error
}

// loadModule returns the module root and every package under it.
func loadModule(t *testing.T) (string, []*Package) {
	t.Helper()
	root := moduleRootDir(t)
	module.once.Do(func() { module.pkgs, module.err = LoadModule(root, []string{"./..."}) })
	if module.err != nil {
		t.Fatal(module.err)
	}
	return root, module.pkgs
}

// moduleRootDir walks up from the test's working directory to go.mod.
func moduleRootDir(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}
