package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"vax780/internal/mem"
)

// FuzzCheckpointLoad feeds arbitrary bytes to the snapshot decoder, twice:
// as they are, and as the payload of a freshly checksummed envelope. A
// mutated input almost never passes the SHA-256 check, so only the second
// form lets the gob decoder see mutated payloads. The contract: Decode
// never panics; it returns either an error or a snapshot, and a snapshot
// it returns re-encodes successfully (no half-valid states escape).
// Seeds cover the interesting neighborhoods: a pristine snapshot,
// truncations, bit flips in each region, a pristine payload, and
// payloads whose memory section is one frame short or one byte long.
func FuzzCheckpointLoad(f *testing.F) {
	var buf bytes.Buffer
	if err := Encode(&buf, testSnapshot(42_000)); err != nil {
		f.Fatalf("Encode: %v", err)
	}
	valid := buf.Bytes()

	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:headerLen])
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	image := len(valid) - trailerLen - testFrames*mem.FrameSize
	for _, off := range []int{0, 8, headerLen, headerLen + 5, image, len(valid) - 1} {
		b := append([]byte(nil), valid...)
		b[off] ^= 0xff
		f.Add(b)
	}
	f.Add(append(append([]byte(nil), valid...), 0xba))
	f.Add([]byte("VAX780CP but then garbage follows the magic number here"))
	payload := valid[headerLen : len(valid)-trailerLen]
	f.Add(payload)
	f.Add(payload[:len(payload)-mem.FrameSize])
	f.Add(append(append([]byte(nil), payload...), 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, seal(data)} {
			s, err := Decode(bytes.NewReader(in))
			if err != nil {
				if s != nil {
					t.Fatalf("Decode returned both a snapshot and error %v", err)
				}
				continue
			}
			var out bytes.Buffer
			if err := Encode(&out, s); err != nil {
				t.Fatalf("decoded snapshot does not re-encode: %v", err)
			}
		}
	})
}

// seal wraps payload, the gob and the memory section, in the envelope
// Encode writes: magic and version before it, a checksum that matches
// after it.
func seal(payload []byte) []byte {
	b := make([]byte, headerLen, headerLen+len(payload)+trailerLen)
	copy(b, magic[:])
	binary.LittleEndian.PutUint32(b[8:], FormatVersion)
	b = append(b, payload...)
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}
