package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vax780/internal/cpu"
	"vax780/internal/fault"
	"vax780/internal/mem"
	"vax780/internal/vmos"
)

// testFrames is how many memory frames testSnapshot holds.
const testFrames = 3

// testSnapshot builds a small but non-trivial snapshot: enough populated
// fields, memory frames among them, that an encode/decode identity
// failure would show.
func testSnapshot(cycle uint64) *Snapshot {
	fc := fault.Config{Seed: 7}
	s := &Snapshot{
		Meta: Meta{
			Profile:     "rte-commercial",
			TotalCycles: 500_000,
			Cycle:       cycle,
			Machine:     cpu.Config{MemBytes: 1 << 20},
			Fault:       &fc,
		},
		FaultState: &fault.State{},
	}
	s.CPU.R[5] = 0xdeadbeef
	s.CPU.PSL = 0x041f0000
	s.CPU.Cycle = cycle
	s.CPU.Instret = cycle / 7
	s.CPU.Mem.Size = 1 << 20
	s.CPU.Mem.Frames = []uint32{3, 17, 200}
	s.CPU.Mem.Data = make([]byte, testFrames*mem.FrameSize)
	for i := range s.CPU.Mem.Data {
		s.CPU.Mem.Data[i] = byte(i*7 + int(cycle))
	}
	s.OS.NextClock = cycle + 100
	s.OS.CPUTime = []vmos.CPUCharge{{PCB: 0x200, Cycles: cycle / 2}}
	s.Monitor.Running = true
	s.Monitor.Hist.Counts[100] = 42
	return s
}

// TestEncodeDecodeRoundtrip round-trips a snapshot with memory frames
// and one with none, whose nil image must come back nil.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	noFrames := testSnapshot(99)
	noFrames.CPU.Mem.Frames, noFrames.CPU.Mem.Data = nil, nil
	for name, want := range map[string]*Snapshot{"frames": testSnapshot(123_456), "no frames": noFrames} {
		var buf bytes.Buffer
		if err := Encode(&buf, want); err != nil {
			t.Fatalf("%s: Encode: %v", name, err)
		}
		got, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: Decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: roundtrip changed the snapshot", name)
		}
		if got.Complete() {
			t.Fatalf("%s: snapshot at cycle %d of %d reported complete", name, got.Meta.Cycle, got.Meta.TotalCycles)
		}
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testSnapshot(1000)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	data := buf.Bytes()

	mustCorrupt := func(name string, b []byte) {
		t.Helper()
		s, err := Decode(bytes.NewReader(b))
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
		if s != nil {
			t.Errorf("%s: corrupt decode returned a snapshot", name)
		}
	}

	image := len(data) - trailerLen - testFrames*mem.FrameSize // the memory section's offset
	for i := 0; i <= 7; i++ {
		cut := len(data) * i / 8
		mustCorrupt("truncated to "+strconv.Itoa(cut)+" bytes", data[:cut])
	}
	mustCorrupt("truncated inside the memory section", data[:image+mem.FrameSize+100])
	mustCorrupt("one padding byte", append(append([]byte(nil), data...), 0))
	for _, off := range []int{0, 7, 8, 11, headerLen + 10, image, image + 700, len(data) - trailerLen, len(data) - 1} {
		b := append([]byte(nil), data...)
		b[off] ^= 0x5a
		mustCorrupt("byte flip at "+strconv.Itoa(off), b)
	}
	// Sealed with a checksum that matches, so only the memory section's
	// length can object.
	payload := data[headerLen : len(data)-trailerLen]
	mustCorrupt("sealed one frame short", seal(payload[:len(payload)-mem.FrameSize]))
	mustCorrupt("sealed with a trailing byte", seal(append(append([]byte(nil), payload...), 0)))
	var inGob bytes.Buffer
	if err := gob.NewEncoder(&inGob).Encode(testSnapshot(1000)); err != nil {
		t.Fatalf("gob: %v", err)
	}
	mustCorrupt("sealed with the image inside the gob too", seal(append(inGob.Bytes(), payload[len(payload)-testFrames*mem.FrameSize:]...)))
	if _, err := Decode(bytes.NewReader(seal(payload))); err != nil {
		t.Fatalf("the pristine payload, sealed again, does not decode: %v", err)
	}
}

// TestDecodeRejectsOtherVersion rebuilds a structurally valid snapshot
// claiming each earlier and a future format version (checksum
// recomputed, so only the version check can object) and requires
// ErrBadVersion — no silent cross-version resume. Version 3 is also
// written in its own layout, with the payload length after the version
// and the memory image inside the gob, as a checkpoint directory of an
// earlier build holds it.
func TestDecodeRejectsOtherVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, testSnapshot(1000)); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	for v := uint32(1); v <= FormatVersion+1; v++ {
		if v == FormatVersion {
			continue
		}
		data := bytes.Clone(buf.Bytes())
		binary.LittleEndian.PutUint32(data[8:], v)
		sum := sha256.Sum256(data[:len(data)-trailerLen])
		copy(data[len(data)-trailerLen:], sum[:])
		if _, err := Decode(bytes.NewReader(data)); !errors.Is(err, ErrBadVersion) {
			t.Errorf("version %d: want ErrBadVersion, got %v", v, err)
		}
	}

	var gobBuf bytes.Buffer
	if err := gob.NewEncoder(&gobBuf).Encode(testSnapshot(1000)); err != nil {
		t.Fatalf("gob: %v", err)
	}
	v3 := append([]byte(nil), magic[:]...)
	v3 = binary.LittleEndian.AppendUint32(v3, 3)
	v3 = binary.LittleEndian.AppendUint64(v3, uint64(gobBuf.Len()))
	v3 = append(v3, gobBuf.Bytes()...)
	sum := sha256.Sum256(v3)
	v3 = append(v3, sum[:]...)
	if _, err := Decode(bytes.NewReader(v3)); !errors.Is(err, ErrBadVersion) {
		t.Errorf("a version 3 snapshot: want ErrBadVersion, got %v", err)
	}
}

// TestEncodeRefusesInconsistentImage: a memory image that is not 512
// bytes per listed frame would encode to a file Decode refuses, so
// Encode refuses it first.
func TestEncodeRefusesInconsistentImage(t *testing.T) {
	s := testSnapshot(1000)
	s.CPU.Mem.Data = s.CPU.Mem.Data[:len(s.CPU.Mem.Data)-1]
	if err := Encode(io.Discard, s); err == nil {
		t.Fatalf("Encode wrote %d memory bytes for %d frames", len(s.CPU.Mem.Data), len(s.CPU.Mem.Frames))
	}
}

func TestDirSaveLoadAndPrune(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "ck"), 3)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for c := uint64(1); c <= 5; c++ {
		if _, err := d.Save(testSnapshot(c * 1000)); err != nil {
			t.Fatalf("Save %d: %v", c, err)
		}
	}
	gens, err := d.Generations()
	if err != nil {
		t.Fatalf("Generations: %v", err)
	}
	if len(gens) != 3 {
		t.Fatalf("want 3 retained generations, have %d: %v", len(gens), gens)
	}
	s, path, err := d.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest: %v", err)
	}
	if s.Meta.Cycle != 5000 {
		t.Fatalf("latest snapshot is cycle %d, want 5000", s.Meta.Cycle)
	}
	if path != gens[len(gens)-1] {
		t.Fatalf("LoadLatest path %s is not the newest generation %s", path, gens[len(gens)-1])
	}
}

// TestDirFallsBackPastCorruptGeneration is the crash-consistency core: a
// damaged newest generation (the only file a crash can damage) must be
// skipped, and its intact predecessor loaded.
func TestDirFallsBackPastCorruptGeneration(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "ck"), 3)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for c := uint64(1); c <= 3; c++ {
		if _, err := d.Save(testSnapshot(c * 1000)); err != nil {
			t.Fatalf("Save %d: %v", c, err)
		}
	}
	gens, _ := d.Generations()
	newest := gens[len(gens)-1]
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newest, raw[:len(raw)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	s, path, err := d.LoadLatest()
	if err != nil {
		t.Fatalf("LoadLatest with corrupt newest: %v", err)
	}
	if s.Meta.Cycle != 2000 {
		t.Fatalf("fell back to cycle %d, want the intact 2000", s.Meta.Cycle)
	}
	if path == newest {
		t.Fatalf("LoadLatest claims to have loaded the corrupt file")
	}

	// All generations corrupt: a typed, descriptive error.
	for _, g := range gens {
		if err := os.WriteFile(g, []byte("junk"), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := d.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot when every generation is damaged, got %v", err)
	}
}

func TestDirEmpty(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "ck"), 0)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, err := d.LoadLatest(); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("want ErrNoSnapshot from an empty directory, got %v", err)
	}
}

// TestDirIgnoresStaleTemp plants a half-written temp file (a simulated
// crash mid-Save): it must not be loadable, and the next Save must clean
// it up.
func TestDirIgnoresStaleTemp(t *testing.T) {
	d, err := Open(filepath.Join(t.TempDir(), "ck"), 3)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	stale := filepath.Join(d.path, "ckpt-123.tmp")
	if err := os.WriteFile(stale, []byte("half-written"), 0o666); err != nil {
		t.Fatal(err)
	}
	gens, err := d.Generations()
	if err != nil || len(gens) != 0 {
		t.Fatalf("temp file visible as a generation: %v %v", gens, err)
	}
	if _, err := d.Save(testSnapshot(1000)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatalf("stale temp file survived Save: %v", err)
	}
}

// TestWriteFile pins the atomic-write contract: while write runs, the
// bytes go to a .tmp file (which Dir prunes); a failed write leaves
// nothing behind; a successful one leaves exactly the target.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "result.upc")
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != 1 || !strings.HasSuffix(ents[0].Name(), ".tmp") {
			t.Errorf("during write the directory holds %v (%v), want one .tmp file", ents, err)
		}
		w.Write([]byte("half"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want the write's own error", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("failed write left %v behind", ents)
	}
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("whole"))
		return err
	}); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "whole" {
		t.Fatalf("target holds %q (%v), want %q", data, err, "whole")
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("target mode %v (%v), want 0644", fi.Mode(), err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 1 {
		t.Fatalf("successful write left %v, want only the target", ents)
	}
}
