package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sort"
	"testing"

	"vax780/internal/asm"
	"vax780/internal/cpu"
)

// imageDigests are the SHA-256 digests of every registry profile's
// generated programs (imageDigest over the profile's Procs images, in
// process order), recorded at 02a0f25, before generation was made
// cheaper. Generation is part of the measurement's input: a byte that
// moves here moves every histogram.
var imageDigests = map[string]string{
	"timesharing-research": "78e62eed1065da58c625715c14070039f3b19a96a907904b1fd8b00427e4a035",
	"timesharing-cpudev":   "bf6825562777594b968453219a7a04706beab643801cb1ea091df57d1eba1281",
	"rte-educational":      "071c57a8701f6e5767cc0c7ce466bf2c80b09501e3fdb8895d986b472cc7a013",
	"rte-scientific":       "8c691467b6d639f535b589347d386a95e6df55886bb6c9677d50515a51612bb3",
	"rte-commercial":       "f44632a66a9232de902f4756bd2b98d20309194a104a1765b816b326b0ac26ec",
}

// imageDigest writes an image to h: its origin and length, its bytes,
// then each label and its address in name order.
func imageDigest(h hash.Hash, im *asm.Image) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], im.Org)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(im.Bytes)))
	h.Write(hdr[:])
	h.Write(im.Bytes)
	names := make([]string, 0, len(im.Labels))
	for name := range im.Labels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var addr [4]byte
		binary.LittleEndian.PutUint32(addr[:], im.Labels[name])
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write(addr[:])
	}
}

// TestGenerateDigests pins generation byte for byte across versions:
// every program a registry profile runs must hash to its recorded digest.
// TestGenerateDeterministic compares two generations in one process only.
func TestGenerateDigests(t *testing.T) {
	for _, p := range All() {
		h := sha256.New()
		for i := 0; i < p.Procs; i++ {
			im, err := Generate(p.program(i))
			if err != nil {
				t.Fatalf("%s[%d]: %v", p.Name, i, err)
			}
			imageDigest(h, im)
		}
		if got, want := hex.EncodeToString(h.Sum(nil)), imageDigests[p.Name]; got != want {
			t.Errorf("%s: programs digest %s, want %s", p.Name, got, want)
		}
	}
}

// One Generate's heap budget. A program is a ~133 KB image, almost all of
// it the zeroed 128 KB data region, so the image buffer alone is ~136 KB.
// The five profiles' first programs measure 183,664–183,744 bytes and
// 140–158 allocations (go1.24.0): headroom 25% in bytes and 27% in
// allocations. Before the data region was reserved in one piece and
// labels and fixup locations stopped going through fmt, the same
// programs cost 294,584–295,392 bytes and 342–397 allocations.
const (
	genBytes  = 224 << 10
	genAllocs = 200
)

// raceEnabled is set in builds with the race detector (race_test.go).
var raceEnabled bool

// TestGenerateAllocations holds one Generate per registry profile to the
// budget above, counting every heap allocation and byte the process makes
// meanwhile (runtime.MemStats deltas). Generate is deterministic, so the
// fewest of three counts is its own.
func TestGenerateAllocations(t *testing.T) {
	if raceEnabled {
		// The race detector's instrumentation turns off the compiler's
		// elision of the temporary in append(s, make([]T, n)...), which
		// asm.Builder's Space and Grow use, so each allocates a zeroed
		// copy of what it adds: one Generate counts ~451 KB, not ~184 KB.
		t.Skip("allocation counts under -race are not the program's")
	}
	for _, p := range All() {
		cfg := p.program(0)
		allocs, bytes := ^uint64(0), ^uint64(0)
		for run := 0; run < 3; run++ {
			a, b := countAllocs(1, func(int) {
				if _, err := Generate(cfg); err != nil {
					t.Fatal(err)
				}
			})
			allocs, bytes = min(allocs, a), min(bytes, b)
		}
		t.Logf("%s: %d allocations, %d bytes", p.Name, allocs, bytes)
		if allocs > genAllocs || bytes > genBytes {
			t.Errorf("%s: one Generate made %d allocations and %d bytes, budget %d and %d",
				p.Name, allocs, bytes, genAllocs, genBytes)
		}
	}
}

// BenchmarkGenerate generates the registry profiles' 24 programs in turn.
func BenchmarkGenerate(b *testing.B) {
	var cfgs []GenConfig
	for _, p := range All() {
		for i := 0; i < p.Procs; i++ {
			cfgs = append(cfgs, p.program(i))
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfgs[i%len(cfgs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrepare builds timesharing-research's session warm: a process
// that has already built the control store and the kernel image.
func BenchmarkPrepare(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Prepare(TimesharingResearch, 8_000_000, cpu.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
