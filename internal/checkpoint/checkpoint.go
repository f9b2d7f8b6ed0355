// Package checkpoint makes measurement runs crash-safe: it defines a
// versioned, checksummed snapshot of the complete simulator state — CPU
// architectural and micro state, OS scheduler state, cache/TB/memory
// contents, write buffer, fault-plane PRNG streams, and the live µPC
// histogram — together with a generation-keeping directory writer whose
// files are written atomically (temp file + rename) and loaded newest-
// first with automatic fallback past corrupt generations.
//
// The contract the rest of the system builds on is deterministic resume:
// a run checkpointed at cycle C and resumed produces a histogram, counter
// set, and reduction bit-identical to an uninterrupted run (proved by
// TestCheckpointResumeDeterminism in internal/workload). The paper's
// sessions were ~1-hour attachments to live machines (§2.2); an
// interrupted session that can continue without invalidating its numbers
// is the moral equivalent.
//
// On-disk layout of one snapshot:
//
//	offset 0   8 bytes       magic "VAX780CP"
//	offset 8   4 bytes       format version (little-endian)
//	offset 12  g bytes       gob-encoded Snapshot, without CPU.Mem.Data
//	12+g       512·k bytes   CPU.Mem.Data raw: the k frames the gob lists
//	12+g+512k  32 bytes      SHA-256 over everything before it
//
// Any damage — truncation, padding, a flipped bit anywhere — fails the
// checksum and is reported as ErrCorrupt; the version is read only after
// the checksum passes, and the gob decoder only ever sees checksum-
// verified bytes of the version it was written for. The memory section
// must then hold exactly 512 bytes for each frame the gob lists.
//
// The format version is 4. Since version 2, physical memory travels as
// its nonzero 512-byte frames (mem.MemoryState) instead of the whole
// array, so a snapshot of a booted 8 MB machine is a few hundred KB.
// Version 3 holds the OS's per-process CPU time as a slice in charge
// order (vmos.CPUCharge) instead of a map, which gob wrote in random
// order, so one state always encodes to the same bytes. Version 4 writes
// the frames' bytes after the gob instead of inside it: Encode streams
// the gob, the image and the checksum through one buffered writer
// straight into the file, so no buffer ever holds the whole snapshot,
// and the caller's image is written where it lies, not copied into gob's
// buffer. The monitor's histogram stays in the gob, where its mostly
// zero counters take about 33 KB as varints against 264 KB raw. Decode
// refuses snapshots of any other version with ErrBadVersion.
package checkpoint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/fault"
	"vax780/internal/mem"
	"vax780/internal/vmos"
)

// FormatVersion is the current snapshot format version. Decode rejects
// snapshots from other versions (no silent cross-version resume).
const FormatVersion = 4

var magic = [8]byte{'V', 'A', 'X', '7', '8', '0', 'C', 'P'}

const (
	headerLen  = 12 // magic + version
	trailerLen = sha256.Size
)

// ErrCorrupt reports a snapshot that is truncated, padded, checksum-
// damaged, or otherwise undecodable. Wrapped by Decode and the Dir loader.
var ErrCorrupt = errors.New("corrupt checkpoint")

// ErrBadVersion reports a snapshot from a different format version.
var ErrBadVersion = errors.New("unsupported checkpoint format version")

// Meta identifies what a snapshot is a checkpoint of, with everything the
// resume path needs to rebuild the run before importing the state.
type Meta struct {
	// Profile is the workload profile name (internal/workload.ByName).
	Profile string
	// Seed is the generation seed the run's profile ran under. Farm
	// instances (internal/farm) derive theirs from the registry profile's,
	// so the name alone under-identifies the run; resume rebuilds the
	// programs from this seed.
	Seed int64
	// TotalCycles is the run's full cycle budget; Cycle is how far the
	// checkpointed run had progressed. Cycle >= TotalCycles marks a
	// completed run, whose Result a resume reconstructs without running
	// (a farm instance that completed but whose result did not persist).
	TotalCycles uint64
	Cycle       uint64
	// Machine is the machine configuration of the run.
	Machine cpu.Config
	// Fault is the fault-injection configuration (nil for a clean run).
	Fault *fault.Config
}

// Snapshot is the complete state of one measurement run.
type Snapshot struct {
	Meta    Meta
	CPU     cpu.State
	OS      vmos.State
	Monitor core.MonitorState
	// FaultState is the injection plane's PRNG stream positions and
	// statistics (nil for a clean run).
	FaultState *fault.State
}

// Complete reports whether the snapshot is of a run that finished its
// cycle budget.
func (s *Snapshot) Complete() bool { return s.Meta.Cycle >= s.Meta.TotalCycles }

// Encode writes the snapshot in the checksummed on-disk form. The header,
// the gob and the memory image go through one buffered writer and the
// checksum straight into w, and the checksum follows them: no buffer
// holds the whole snapshot. While it runs, Encode sets s.CPU.Mem.Data
// aside to keep it out of the gob, so nothing else may read s meanwhile;
// the field is back in place when Encode returns.
func Encode(w io.Writer, s *Snapshot) error {
	frames, image := s.CPU.Mem.Frames, s.CPU.Mem.Data
	if len(image) != len(frames)*mem.FrameSize {
		return fmt.Errorf("checkpoint: encoding snapshot: %d memory bytes for %d frames of %d",
			len(image), len(frames), mem.FrameSize)
	}
	sum := sha256.New()
	bw := bufio.NewWriter(io.MultiWriter(w, sum))
	var hdr [headerLen]byte
	copy(hdr[:], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	bw.Write(hdr[:])
	s.CPU.Mem.Data = nil
	err := gob.NewEncoder(bw).Encode(s)
	s.CPU.Mem.Data = image
	if err != nil {
		return fmt.Errorf("checkpoint: encoding snapshot: %w", err)
	}
	// bufio keeps its first write error and returns it from Flush.
	bw.Write(image)
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("checkpoint: writing snapshot: %w", err)
	}
	if _, err := w.Write(sum.Sum(nil)); err != nil {
		return fmt.Errorf("checkpoint: writing snapshot: %w", err)
	}
	return nil
}

// Decode reads a snapshot written by Encode. It never panics on arbitrary
// input (FuzzCheckpointLoad proves this) and returns an error wrapping
// ErrCorrupt or ErrBadVersion on anything but a pristine snapshot. The
// returned snapshot's memory image is a slice of the bytes read.
func Decode(r io.Reader) (*Snapshot, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading snapshot: %w", err)
	}
	if len(data) < headerLen+trailerLen {
		return nil, fmt.Errorf("checkpoint: %w: %d bytes is shorter than the envelope", ErrCorrupt, len(data))
	}
	if !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("checkpoint: %w: bad magic", ErrCorrupt)
	}
	// Integrity before interpretation: the version field is only trusted
	// after the checksum over the whole file passes.
	body := data[:len(data)-trailerLen]
	if got := sha256.Sum256(body); !bytes.Equal(got[:], data[len(body):]) {
		return nil, fmt.Errorf("checkpoint: %w: checksum mismatch", ErrCorrupt)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("checkpoint: %w: snapshot is version %d, this build reads %d",
			ErrBadVersion, v, FormatVersion)
	}
	// A bytes.Reader is an io.ByteReader, so gob reads exactly its
	// messages and leaves the memory section unread.
	rest := bytes.NewReader(body[headerLen:])
	var s Snapshot
	if err := gob.NewDecoder(rest).Decode(&s); err != nil {
		return nil, fmt.Errorf("checkpoint: %w: payload does not decode: %v", ErrCorrupt, err)
	}
	if s.CPU.Mem.Data != nil {
		return nil, fmt.Errorf("checkpoint: %w: memory bytes inside the gob", ErrCorrupt)
	}
	image := body[len(body)-rest.Len():]
	// Divide rather than multiply: a frame count read from the file
	// cannot overflow a quotient.
	if n := len(s.CPU.Mem.Frames); len(image)%mem.FrameSize != 0 || len(image)/mem.FrameSize != n {
		return nil, fmt.Errorf("checkpoint: %w: %d bytes follow the gob, its %d frames need %d",
			ErrCorrupt, len(image), n, n*mem.FrameSize)
	}
	if len(image) > 0 {
		s.CPU.Mem.Data = image
	}
	return &s, nil
}
