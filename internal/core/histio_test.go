package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"io"
	"runtime"
	"strconv"
	"testing"

	"vax780/internal/ucode"
)

func testHist() *Histogram {
	h := &Histogram{}
	for i := 0; i < ucode.StoreSize; i += 97 {
		h.Counts[i] = uint64(i)*3 + 1
		h.Stalls[i] = uint64(i) * 2
	}
	return h
}

func TestHistogramSaveLoadRoundtrip(t *testing.T) {
	h := testHist()
	var buf bytes.Buffer
	if err := h.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadHistogram(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadHistogram: %v", err)
	}
	if *got != *h {
		t.Fatalf("roundtrip changed the histogram")
	}
}

// TestHistogramReservedWords: Save writes the 256 reserved words after
// the counters as zeros, and LoadHistogram refuses a checksum-intact file
// with any bit set there, so every histogram it loads saves back to the
// bytes it came from.
func TestHistogramReservedWords(t *testing.T) {
	var buf bytes.Buffer
	if err := testHist().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data := buf.Bytes()
	reserved := data[histHeaderLen+16*ucode.StoreSize : len(data)-histTrailerLen]
	if len(reserved) != 8*histReserved || !bytes.Equal(reserved, make([]byte, len(reserved))) {
		t.Fatalf("the %d bytes after the counters are not %d zero words", len(reserved), histReserved)
	}
	for _, word := range []int{0, histReserved - 1} {
		b := bytes.Clone(data)
		b[histHeaderLen+16*ucode.StoreSize+8*word] = 1
		sum := sha256.Sum256(b[:len(b)-histTrailerLen])
		copy(b[len(b)-histTrailerLen:], sum[:])
		if h, err := LoadHistogram(bytes.NewReader(b)); !errors.Is(err, ErrCorruptHistogram) || h != nil {
			t.Errorf("reserved word %d set: got %v and a histogram %v, want ErrCorruptHistogram and none", word, err, h != nil)
		}
	}
}

func TestHistogramLegacyFormatStillLoads(t *testing.T) {
	h := testHist()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(h); err != nil {
		t.Fatalf("gob: %v", err)
	}
	got, err := LoadHistogram(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("legacy load: %v", err)
	}
	if *got != *h {
		t.Fatalf("legacy roundtrip changed the histogram")
	}
}

// TestHistogramCorruptionMatrix damages a saved histogram every way a
// disk or transport can — truncation at every eighth of the file, a
// padding byte, and a flipped byte in each region (header, body,
// trailer) — and requires every case to fail with ErrCorruptHistogram
// and yield no histogram.
func TestHistogramCorruptionMatrix(t *testing.T) {
	var buf bytes.Buffer
	if err := testHist().Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	data := buf.Bytes()

	mustCorrupt := func(name string, b []byte) {
		t.Helper()
		h, err := LoadHistogram(bytes.NewReader(b))
		if !errors.Is(err, ErrCorruptHistogram) {
			t.Errorf("%s: want ErrCorruptHistogram, got %v", name, err)
		}
		if h != nil {
			t.Errorf("%s: corrupt load returned a histogram", name)
		}
	}

	for i := 0; i <= 7; i++ {
		cut := len(data) * i / 8
		mustCorrupt("truncated to "+strconv.Itoa(cut)+" bytes", data[:cut])
	}
	mustCorrupt("one padding byte", append(append([]byte(nil), data...), 0))

	flip := func(off int) []byte {
		b := append([]byte(nil), data...)
		b[off] ^= 0x5a
		return b
	}
	for off := 0; off < histHeaderLen; off++ {
		mustCorrupt("header flip at "+strconv.Itoa(off), flip(off))
	}
	bodyLen := len(data) - histHeaderLen - histTrailerLen
	for off := histHeaderLen; off < histHeaderLen+bodyLen; off += bodyLen/32 + 1 {
		mustCorrupt("body flip at "+strconv.Itoa(off), flip(off))
	}
	for off := len(data) - histTrailerLen; off < len(data); off++ {
		mustCorrupt("trailer flip at "+strconv.Itoa(off), flip(off))
	}
}

// saveDigest is the SHA-256 of the file Save wrote for fixedHist at
// 330260c, where the reserved words were still a saturation bitmap (zero
// for fixedHist): reserving them did not move the bytes.
const saveDigest = "2d9bdd81cc7898e00bd3c96640bdb6a6455b78dfea799e6f4ec407268ed6b46e"

// fixedHist fills every bucket, so a value lost or repeated at a chunk
// boundary moves the file.
func fixedHist() *Histogram {
	h := &Histogram{}
	for i := range h.Counts {
		h.Counts[i] = uint64(i+1) * 0x9E3779B97F4A7C15
		h.Stalls[i] = uint64(i) << 20
	}
	return h
}

// TestHistogramSaveStreams holds Save to its streaming form: into
// io.Discard it allocates one chunk and the hash state, not a copy of the
// 264 KB payload, and into an empty bytes.Buffer it adds what growing the
// buffer once to the file's size costs (one allocation; two under the
// race detector, whose instrumentation keeps bytes.Buffer's temporary).
// The bytes written are the recorded file's. Counts are the fewest of
// three runs.
func TestHistogramSaveStreams(t *testing.T) {
	h := fixedHist()
	const file = histHeaderLen + histPayloadLen + histTrailerLen
	count := func(f func(run int)) (allocs, size uint64) {
		allocs, size = ^uint64(0), ^uint64(0)
		for run := 0; run < 3; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f(run)
			runtime.ReadMemStats(&after)
			allocs = min(allocs, after.Mallocs-before.Mallocs)
			size = min(size, after.TotalAlloc-before.TotalAlloc)
		}
		return allocs, size
	}
	save := func(w io.Writer) {
		if err := h.Save(w); err != nil {
			t.Fatal(err)
		}
	}
	var bufs, grown [3]bytes.Buffer
	dAllocs, dBytes := count(func(int) { save(io.Discard) })
	bAllocs, bBytes := count(func(run int) { save(&bufs[run]) })
	gAllocs, gBytes := count(func(run int) { grown[run].Grow(file) })
	t.Logf("Save into io.Discard: %d allocations, %d bytes; into an empty bytes.Buffer: %d, %d; growing one to the file's %d bytes: %d, %d",
		dAllocs, dBytes, bAllocs, bBytes, file, gAllocs, gBytes)
	if dBytes > histChunk+512 {
		t.Errorf("Save into io.Discard allocated %d bytes, want at most a %d-byte chunk and the hash state", dBytes, histChunk)
	}
	if bAllocs > dAllocs+gAllocs || bBytes > dBytes+gBytes {
		t.Errorf("Save into a bytes.Buffer made %d allocations and %d bytes more than into io.Discard, want one growth: %d and %d",
			bAllocs-dAllocs, bBytes-dBytes, gAllocs, gBytes)
	}
	for i := range bufs {
		sum := sha256.Sum256(bufs[i].Bytes())
		if bufs[i].Len() != file || hex.EncodeToString(sum[:]) != saveDigest {
			t.Errorf("run %d wrote %d bytes with digest %x, want %d bytes with digest %s", i, bufs[i].Len(), sum, file, saveDigest)
		}
	}
}

// shortHeaderFile is an L-byte file, 16 <= L < 48, that starts with the
// magic and a payload length n = L - 48 (mod 2^64): the one n for which
// histHeaderLen+n+histTrailerLen wraps around to L.
func shortHeaderFile(l int) []byte {
	b := append([]byte(nil), histMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(l)-(histHeaderLen+histTrailerLen))
	return append(b, make([]byte, l-histHeaderLen)...)
}

// TestLoadHistogramShortFiles: a file too short to hold the header and
// the trailer, whose length field makes the sum of the three lengths
// wrap to the file's size, is corrupt. Before the length field was
// checked first, the 16–31-byte ones sliced out of range and panicked.
func TestLoadHistogramShortFiles(t *testing.T) {
	for l := histHeaderLen; l < histHeaderLen+histTrailerLen; l++ {
		h, err := LoadHistogram(bytes.NewReader(shortHeaderFile(l)))
		if !errors.Is(err, ErrCorruptHistogram) || h != nil {
			t.Errorf("%d-byte file: got %v and a histogram %v, want ErrCorruptHistogram and none", l, err, h != nil)
		}
	}
}

// FuzzLoadHistogram feeds arbitrary bytes to LoadHistogram. The contract:
// it never panics; it returns a histogram or an error, never both; and a
// histogram loaded from the checksummed format saves back to the very
// bytes it came from. Seeds: the short files of TestLoadHistogramShortFiles,
// a valid file, a legacy gob stream and nothing at all.
func FuzzLoadHistogram(f *testing.F) {
	for l := histHeaderLen; l < histHeaderLen+histTrailerLen; l++ {
		f.Add(shortHeaderFile(l))
	}
	var valid, legacy bytes.Buffer
	if err := testHist().Save(&valid); err != nil {
		f.Fatalf("Save: %v", err)
	}
	if err := gob.NewEncoder(&legacy).Encode(testHist()); err != nil {
		f.Fatalf("gob: %v", err)
	}
	f.Add(valid.Bytes())
	f.Add(legacy.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := LoadHistogram(bytes.NewReader(data))
		if err != nil {
			if h != nil {
				t.Fatalf("LoadHistogram returned both a histogram and error %v", err)
			}
			return
		}
		if len(data) < histHeaderLen || !bytes.Equal(data[:8], histMagic[:]) {
			return // the legacy gob form, which Save does not write
		}
		var out bytes.Buffer
		if err := h.Save(&out); err != nil {
			t.Fatalf("Save: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("a loaded histogram saves to %d bytes that differ from the %d it came from", out.Len(), len(data))
		}
	})
}
