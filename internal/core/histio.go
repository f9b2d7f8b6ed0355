package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"vax780/internal/ucode"
)

// Histogram file format. A measurement session's raw data product must
// survive being written to disk on one machine and reduced on another
// possibly weeks later, so the on-disk form is self-checking: a magic, the
// payload length, the encoded histogram, and a SHA-256 trailer over
// everything before it. Truncation, padding and bit rot are all rejected
// with ErrCorruptHistogram rather than silently producing a wrong table.
//
// The payload is a fixed little-endian layout (Counts, Stalls, then 256
// reserved words, in index order), NOT gob: gob assigns wire type IDs
// from a process-global registry, so its bytes depend on what else the
// process has encoded — a resumed run would write a value-identical but
// byte-different file.
// The deterministic-resume contract promises `cmp`-level equality of the
// data product, so the encoding must be a pure function of the data.
//
// The reserved words held a per-bucket saturation bitmap while the monitor
// had a configurable counter capacity. No run ever set one, so every file
// holds zeros there; Save still writes them, so files keep their bytes,
// and LoadHistogram refuses a file whose reserved words are not zero.
//
// Files written before the format existed (a bare gob stream) still load,
// without the integrity check.

// ErrCorruptHistogram reports a histogram file that is truncated,
// padded, or fails its checksum. It is returned (wrapped) by
// LoadHistogram; the decode never yields a partially-filled histogram.
var ErrCorruptHistogram = errors.New("corrupt histogram file")

var histMagic = [8]byte{'V', 'A', 'X', 'U', 'P', 'C', 'H', '1'}

// reservedWords is what Save writes in the reserved words.
var reservedWords [histReserved]uint64

const (
	histHeaderLen  = 16 // magic + little-endian uint64 payload length
	histTrailerLen = sha256.Size
	// histReserved is the number of reserved words after the counters.
	histReserved = ucode.StoreSize / 64
	// histPayloadLen is the fixed payload size: Counts, Stalls, reserved.
	histPayloadLen = 8 * (2*ucode.StoreSize + histReserved)
	// histChunk is how many bytes Save encodes before writing them.
	histChunk = 4 << 10
)

// Save writes the histogram in the checksummed binary form. The output
// is a pure function of the histogram's contents: equal histograms write
// byte-identical files. The payload length is a constant, so the header
// goes first and the payload streams through the checksum and w one
// chunk at a time; a w that can Grow, such as a bytes.Buffer, is grown
// once to the file's size.
func (h *Histogram) Save(w io.Writer) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(histHeaderLen + histPayloadLen + histTrailerLen)
	}
	sum := sha256.New()
	buf := make([]byte, 0, histChunk)
	flush := func() error {
		sum.Write(buf)
		if _, err := w.Write(buf); err != nil {
			return fmt.Errorf("core: writing histogram: %w", err)
		}
		buf = buf[:0]
		return nil
	}
	buf = append(buf, histMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, histPayloadLen)
	for _, arr := range [][]uint64{h.Counts[:], h.Stalls[:], reservedWords[:]} {
		for _, v := range arr {
			if len(buf) == histChunk {
				if err := flush(); err != nil {
					return err
				}
			}
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
	}
	if err := flush(); err != nil {
		return err
	}
	buf = sum.Sum(buf)
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("core: writing histogram: %w", err)
	}
	return nil
}

// LoadHistogram reads a histogram written by Save. Corrupted input —
// truncated at any point, padded, or with any byte of header, body or
// trailer damaged — returns an error wrapping ErrCorruptHistogram and no
// histogram; decode state never escapes on failure.
func LoadHistogram(r io.Reader) (*Histogram, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading histogram: %w", err)
	}
	if len(data) < histHeaderLen || !bytes.Equal(data[:8], histMagic[:]) {
		// Not the checksummed format: try the legacy bare-gob form.
		return loadLegacyHistogram(data)
	}
	// The length field is compared with the one length the format has
	// before any arithmetic on it: n is the file's to choose, and
	// histHeaderLen+n+histTrailerLen wraps for n near 2^64.
	if n := binary.LittleEndian.Uint64(data[8:16]); n != histPayloadLen {
		return nil, fmt.Errorf("core: %w: header promises a %d-byte payload, the format has %d",
			ErrCorruptHistogram, n, histPayloadLen)
	}
	if len(data) != histHeaderLen+histPayloadLen+histTrailerLen {
		return nil, fmt.Errorf("core: %w: %d bytes on disk, the format has %d",
			ErrCorruptHistogram, len(data), histHeaderLen+histPayloadLen+histTrailerLen)
	}
	body := data[:histHeaderLen+histPayloadLen]
	got := sha256.Sum256(body)
	if !bytes.Equal(got[:], data[len(body):]) {
		return nil, fmt.Errorf("core: %w: checksum mismatch", ErrCorruptHistogram)
	}
	var h Histogram
	payload := body[histHeaderLen:]
	for _, arr := range [][]uint64{h.Counts[:], h.Stalls[:]} {
		for i := range arr {
			arr[i] = binary.LittleEndian.Uint64(payload)
			payload = payload[8:]
		}
	}
	for _, b := range payload {
		if b != 0 {
			return nil, fmt.Errorf("core: %w: a reserved word is not zero", ErrCorruptHistogram)
		}
	}
	return &h, nil
}

// loadLegacyHistogram decodes the pre-checksum format: a bare gob stream.
func loadLegacyHistogram(data []byte) (*Histogram, error) {
	var h Histogram
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&h); err != nil {
		return nil, fmt.Errorf("core: %w: not a histogram file: %v", ErrCorruptHistogram, err)
	}
	return &h, nil
}
