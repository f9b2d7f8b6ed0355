package mem

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func TestMemoryReadWrite(t *testing.T) {
	m := New(4096)
	m.WriteLong(0x100, 0xDEADBEEF)
	if got := m.ReadLong(0x100); got != 0xDEADBEEF {
		t.Errorf("ReadLong = %#x", got)
	}
	if got := m.Byte(0x100); got != 0xEF {
		t.Errorf("little-endian byte 0 = %#x, want 0xEF", got)
	}
	if got := m.Byte(0x103); got != 0xDE {
		t.Errorf("byte 3 = %#x, want 0xDE", got)
	}
	m.SetByte(0x101, 0x00)
	if got := m.ReadLong(0x100); got != 0xDEAD00EF {
		t.Errorf("after byte write: %#x", got)
	}
}

func TestMemoryLoadRead(t *testing.T) {
	m := New(1024)
	m.Load(10, []byte{1, 2, 3})
	if got := m.Read(10, 3); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Read = %v", got)
	}
}

func TestMemoryBoundsLatchFault(t *testing.T) {
	m := New(16)
	if got := m.ReadLong(14); got != 0 {
		t.Errorf("out-of-range read = %#x, want 0", got)
	}
	f, ok := m.TakeFault()
	if !ok || f.Kind != FaultRange || f.Addr != 14 {
		t.Errorf("latched fault = %+v ok=%v, want FaultRange at 14", f, ok)
	}
	if _, ok := m.TakeFault(); ok {
		t.Error("TakeFault should clear the latch")
	}
	// The latch holds the FIRST syndrome only.
	m.ReadLong(20)
	m.SetByte(40, 1)
	f, ok = m.TakeFault()
	if !ok || f.Addr != 20 {
		t.Errorf("first-error latch = %+v ok=%v, want addr 20", f, ok)
	}
	// Out-of-range writes are dropped, not applied mod-size.
	m2 := New(32)
	m2.WriteLong(30, 0xFFFFFFFF)
	if got := m2.ReadLong(28); got != 0 {
		t.Errorf("dropped write leaked: %#x", got)
	}
	m2.TakeFault()
}

// TestBytesMatchesByte: the bulk read returns what per-byte reads return,
// including the zeros and the latched address past the end of the array.
func TestBytesMatchesByte(t *testing.T) {
	m := New(64)
	for pa := uint32(0); pa < 64; pa += 4 {
		m.WriteLong(pa, pa*0x01010101+0x04030201)
	}
	for _, pa := range []uint32{0, 13, 60, 62} {
		got := make([]byte, 4)
		m.Bytes(pa, got)
		gotFault, gotOK := m.TakeFault()
		for i := range got {
			if want := m.Byte(pa + uint32(i)); got[i] != want {
				t.Errorf("Bytes(%d)[%d] = %#x, Byte = %#x", pa, i, got[i], want)
			}
		}
		if f, ok := m.TakeFault(); f != gotFault || ok != gotOK {
			t.Errorf("Bytes(%d) latched %+v %v, Byte latched %+v %v", pa, gotFault, gotOK, f, ok)
		}
	}
}

// TestWatchedFrameWrites: a write into a watched frame, and any Load or
// ImportState, start a new map generation and unwatch every frame; a
// write elsewhere changes nothing.
func TestWatchedFrameWrites(t *testing.T) {
	m := New(8 << 10)
	st := m.ExportState()
	frame := uint32(1) << frameShift
	cases := []struct {
		name  string
		write func()
		bumps bool
	}{
		{"byte outside", func() { m.SetByte(0, 1) }, false},
		{"longword outside", func() { m.WriteLong(2*frame, 1) }, false},
		{"byte inside", func() { m.SetByte(frame+5, 1) }, true},
		{"longword inside", func() { m.WriteLong(frame+8, 1) }, true},
		{"longword reaching in", func() { m.WriteLong(frame-2, 1) }, true},
		{"Load elsewhere", func() { m.Load(3*frame, []byte{1}) }, true},
		{"ImportState", func() { _ = m.ImportState(st) }, true},
	}
	for _, c := range cases {
		m.Watch(frame + 4)
		gen := m.MapGen()
		c.write()
		if bumped := m.MapGen() != gen; bumped != c.bumps {
			t.Errorf("%s: new generation = %v, want %v", c.name, bumped, c.bumps)
		}
		if m.Watched(frame) == c.bumps {
			t.Errorf("%s: frame still watched = %v", c.name, m.Watched(frame))
		}
	}
}

// TestMemoryStateImport: a state round-trips into a memory that held
// other bytes, including a last frame the array only partly covers, and
// ImportState refuses a malformed state before the array, the fault latch
// or the map generation changes.
func TestMemoryStateImport(t *testing.T) {
	const size = 4*frameSize - 24 // frame 3 is partial
	src := New(size)
	src.SetByte(0x205, 7)
	src.SetByte(size-1, 9)
	st := src.ExportState()
	if want := []uint32{1, 3}; !reflect.DeepEqual(st.Frames, want) || len(st.Data) != 2*frameSize {
		t.Fatalf("exported frames %v with %d bytes, want %v with %d", st.Frames, len(st.Data), want, 2*frameSize)
	}
	m := New(size)
	m.SetByte(0x10, 5)
	if err := m.ImportState(st); err != nil {
		t.Fatalf("ImportState: %v", err)
	}
	if !bytes.Equal(m.data, src.data) {
		t.Fatal("imported memory differs from the exported one")
	}

	frame := func(b byte) []byte { return bytes.Repeat([]byte{b}, frameSize) }
	for _, c := range []struct {
		name string
		st   MemoryState
	}{
		{"wrong size", MemoryState{Size: size - frameSize, Frames: []uint32{1}, Data: frame(1)}},
		{"wrong data length", MemoryState{Size: size, Frames: []uint32{1}, Data: frame(1)[1:]}},
		{"duplicate frame", MemoryState{Size: size, Frames: []uint32{1, 1}, Data: append(frame(1), frame(2)...)}},
		{"descending frames", MemoryState{Size: size, Frames: []uint32{2, 1}, Data: append(frame(1), frame(2)...)}},
		{"frame past the array", MemoryState{Size: size, Frames: []uint32{0, 4}, Data: append(frame(1), frame(2)...)}},
	} {
		before := append([]byte(nil), m.data...)
		gen := m.MapGen()
		c.st.HasFault = true
		if err := m.ImportState(c.st); err == nil {
			t.Errorf("%s: ImportState accepted it", c.name)
		}
		if !bytes.Equal(m.data, before) || m.MapGen() != gen || m.hasFault {
			t.Errorf("%s: a refused import changed the memory", c.name)
		}
	}
}

func TestMemoryRDSInjection(t *testing.T) {
	m := New(64)
	m.WriteLong(8, 0x12345678)
	fire := false
	m.SetInjector(func() bool { return fire })
	if got := m.ReadLong(8); got != 0x12345678 {
		t.Errorf("read with idle injector = %#x", got)
	}
	if _, ok := m.TakeFault(); ok {
		t.Error("idle injector latched a fault")
	}
	fire = true
	// RDS delivers the (still correct) data AND latches the syndrome: the
	// error is in the modelled check bits, not the simulated array.
	if got := m.ReadLong(8); got != 0x12345678 {
		t.Errorf("RDS read = %#x, want correct data", got)
	}
	f, ok := m.TakeFault()
	if !ok || f.Kind != FaultRDS || f.Addr != 8 {
		t.Errorf("RDS fault = %+v ok=%v", f, ok)
	}
	if s := f.Kind.String(); s == "" || s == "unknown memory fault" {
		t.Errorf("FaultRDS string = %q", s)
	}
}

func TestPropertyMemoryLongRoundTrip(t *testing.T) {
	m := New(1 << 16)
	f := func(addr uint16, v uint32) bool {
		pa := uint32(addr)
		if pa > m.Size()-4 {
			pa = m.Size() - 4
		}
		m.WriteLong(pa, v)
		return m.ReadLong(pa) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// mustSBI builds a default-configured SBI, failing the test on error.
func mustSBI(t *testing.T) *SBI {
	t.Helper()
	s, err := NewSBI(DefaultSBIConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSBIBadConfigErrors(t *testing.T) {
	if _, err := NewSBI(SBIConfig{ReadLatency: 0, WriteOccupancy: 6}); err == nil {
		t.Error("zero read latency should be rejected")
	}
	if _, err := NewSBI(SBIConfig{ReadLatency: 6, WriteOccupancy: -1}); err == nil {
		t.Error("negative write occupancy should be rejected")
	}
}

func TestSBITimeoutInjection(t *testing.T) {
	s := mustSBI(t)
	fire := false
	s.SetInjector(func() bool { return fire })
	if done := s.Read(100); done != 106 {
		t.Errorf("clean read done = %d", done)
	}
	fire = true
	// A timed-out transaction completes after the timeout interval plus
	// the normal latency, and latches the starting cycle.
	if done := s.Read(200); done != 200+TimeoutPenalty+6 {
		t.Errorf("timed-out read done = %d, want %d", done, 200+TimeoutPenalty+6)
	}
	cyc, ok := s.TakeFault()
	if !ok || cyc != 200 {
		t.Errorf("latched timeout = %d ok=%v, want cycle 200", cyc, ok)
	}
	if s.Stats().Timeouts != 1 {
		t.Errorf("timeouts = %d", s.Stats().Timeouts)
	}
}

func TestSBIUncontendedRead(t *testing.T) {
	s := mustSBI(t)
	if done := s.Read(100); done != 106 {
		t.Errorf("read done = %d, want 106", done)
	}
	if s.Stats().Reads != 1 {
		t.Errorf("reads = %d", s.Stats().Reads)
	}
}

func TestSBIContention(t *testing.T) {
	s := mustSBI(t)
	first := s.Read(100) // 106
	second := s.Read(102)
	if second != first+6 {
		t.Errorf("contended read done = %d, want %d", second, first+6)
	}
	// After the bus drains, a later read is uncontended again.
	third := s.Read(second + 10)
	if third != second+16 {
		t.Errorf("post-drain read done = %d, want %d", third, second+16)
	}
}

func TestSBIWriteOccupiesBus(t *testing.T) {
	s := mustSBI(t)
	s.Write(0) // occupies until 6
	if done := s.Read(1); done != 12 {
		t.Errorf("read behind write done = %d, want 12", done)
	}
}

func TestWriteBufferFastPath(t *testing.T) {
	s := mustSBI(t)
	w := NewWriteBuffer(s)
	if stall := w.Write(10); stall != 0 {
		t.Errorf("first write stall = %d", stall)
	}
	// A write 6+ cycles later does not stall.
	if stall := w.Write(16); stall != 0 {
		t.Errorf("spaced write stall = %d", stall)
	}
}

func TestWriteBufferBackToBackStalls(t *testing.T) {
	s := mustSBI(t)
	w := NewWriteBuffer(s)
	w.Write(10) // drains at 16
	if stall := w.Write(12); stall != 4 {
		t.Errorf("back-to-back write stall = %d, want 4", stall)
	}
	st := w.Stats()
	if st.Writes != 2 || st.Stalls != 1 || st.StallCycles != 4 {
		t.Errorf("stats = %+v", st)
	}
}

func TestWriteBufferChainOfWrites(t *testing.T) {
	// N back-to-back writes issued on consecutive cycles: each pays the
	// residual occupancy of its predecessor.
	s := mustSBI(t)
	w := NewWriteBuffer(s)
	now := uint64(0)
	var total uint64
	for i := 0; i < 10; i++ {
		stall := w.Write(now)
		total += stall
		now += stall + 1 // one cycle to initiate the write, then next attempt
	}
	// First write free; each subsequent write waits 5 cycles (6-cycle
	// occupancy minus the 1-cycle initiation).
	if total != 9*5 {
		t.Errorf("total stall = %d, want 45", total)
	}
}

func TestPropertySBIMonotonic(t *testing.T) {
	// Completion times never move backwards no matter the request pattern.
	f := func(deltas []uint8) bool {
		s := mustSBI(t)
		now, last := uint64(0), uint64(0)
		for i, d := range deltas {
			now += uint64(d % 8)
			var done uint64
			if i%2 == 0 {
				done = s.Read(now)
			} else {
				done = s.Write(now)
			}
			if done < last || done < now {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestWriteBufferDepthTwo(t *testing.T) {
	s := mustSBI(t)
	w := NewWriteBufferDepth(s, 2)
	if w.Depth() != 2 {
		t.Fatalf("depth = %d", w.Depth())
	}
	// Two back-to-back writes fit the buffer without stalling.
	if st := w.Write(10); st != 0 {
		t.Errorf("first write stall = %d", st)
	}
	if st := w.Write(11); st != 0 {
		t.Errorf("second write stall = %d (depth 2 should absorb it)", st)
	}
	// The third must wait for the first to drain (at cycle 16).
	if st := w.Write(12); st != 4 {
		t.Errorf("third write stall = %d, want 4", st)
	}
}

func TestWriteBufferDepthReducesStalls(t *testing.T) {
	run := func(depth int) uint64 {
		s := mustSBI(t)
		w := NewWriteBufferDepth(s, depth)
		now := uint64(0)
		for i := 0; i < 50; i++ {
			now += w.Write(now) + 2 // writes two cycles apart
		}
		return w.Stats().StallCycles
	}
	d1, d2, d4 := run(1), run(2), run(4)
	if !(d1 >= d2 && d2 >= d4) {
		t.Errorf("stalls not monotone in depth: %d, %d, %d", d1, d2, d4)
	}
	if d1 == 0 {
		t.Error("depth-1 buffer should stall on 2-cycle-apart writes")
	}
}
