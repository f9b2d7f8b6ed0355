package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// image returns the whole array as one flat copy.
func image(m *Memory) []byte {
	b := make([]byte, m.size)
	m.copyOut(0, b)
	return b
}

// flat is the reference the frame table must match: the memory as one
// flat array, with the accessors' semantics written out byte by byte.
type flat struct {
	data     []byte
	inject   func() bool
	fault    Fault
	hasFault bool
	watched  []uint64
	mapGen   uint64
	stored   []bool // per frame: a nonzero byte was ever stored there
}

func newFlat(size uint32) *flat {
	frames := (int(size) + frameSize - 1) >> frameShift
	return &flat{data: make([]byte, size), watched: make([]uint64, (frames+63)/64), stored: make([]bool, frames)}
}

func (r *flat) latch(k FaultKind, pa uint32) {
	if !r.hasFault {
		r.fault, r.hasFault = Fault{Kind: k, Addr: pa}, true
	}
}

func (r *flat) in(pa uint32, n int) bool { return uint64(pa)+uint64(n) <= uint64(len(r.data)) }

// read is one read reference: a range check, then one RDS sample.
func (r *flat) read(pa uint32, n int) bool {
	if !r.in(pa, n) {
		r.latch(FaultRange, pa)
		return false
	}
	if r.inject != nil && r.inject() {
		r.latch(FaultRDS, pa)
	}
	return true
}

func (r *flat) watchedAt(pa uint32) bool {
	f := pa >> frameShift
	return int(f/64) < len(r.watched) && r.watched[f/64]&(1<<(f%64)) != 0
}

func (r *flat) invalidate() {
	r.mapGen++
	clear(r.watched)
}

func (r *flat) Byte(pa uint32) byte {
	if !r.read(pa, 1) {
		return 0
	}
	return r.data[pa]
}

func (r *flat) ReadLong(pa uint32) uint32 {
	if !r.read(pa, 4) {
		return 0
	}
	return uint32(r.data[pa]) | uint32(r.data[pa+1])<<8 | uint32(r.data[pa+2])<<16 | uint32(r.data[pa+3])<<24
}

func (r *flat) Read(pa uint32, n int) []byte {
	out := make([]byte, n)
	if r.read(pa, n) {
		copy(out, r.data[pa:])
	}
	return out
}

func (r *flat) Peek(pa uint32, n int) []byte {
	out := make([]byte, n)
	if r.in(pa, n) {
		copy(out, r.data[pa:])
	}
	return out
}

func (r *flat) SetByte(pa uint32, v byte) {
	if !r.in(pa, 1) {
		r.latch(FaultRange, pa)
		return
	}
	if r.watchedAt(pa) {
		r.invalidate()
	}
	r.data[pa] = v
	if v != 0 {
		r.stored[pa>>frameShift] = true
	}
}

func (r *flat) WriteLong(pa uint32, v uint32) {
	if !r.in(pa, 4) {
		r.latch(FaultRange, pa)
		return
	}
	if r.watchedAt(pa) || r.watchedAt(pa+3) {
		r.invalidate()
	}
	for i := uint32(0); i < 4; i++ {
		r.data[pa+i] = byte(v >> (8 * i))
		if r.data[pa+i] != 0 {
			r.stored[(pa+i)>>frameShift] = true
		}
	}
}

func (r *flat) Load(pa uint32, b []byte) {
	if !r.in(pa, len(b)) {
		r.latch(FaultRange, pa)
		return
	}
	r.invalidate()
	copy(r.data[pa:], b)
	for i, v := range b {
		if v != 0 {
			r.stored[(pa+uint32(i))>>frameShift] = true
		}
	}
}

// ExportState is the array scan the frame table replaced.
func (r *flat) ExportState() MemoryState {
	st := MemoryState{Size: uint32(len(r.data)), Fault: r.fault, HasFault: r.hasFault}
	for lo := 0; lo < len(r.data); lo += frameSize {
		f := r.data[lo:min(lo+frameSize, len(r.data))]
		if bytes.Equal(f, zeroFrame[:len(f)]) {
			continue
		}
		st.Frames = append(st.Frames, uint32(lo>>frameShift))
		st.Data = append(append(st.Data, f...), zeroFrame[len(f):]...)
	}
	return st
}

func (r *flat) ImportState(st MemoryState) {
	clear(r.data)
	clear(r.stored)
	for i, f := range st.Frames {
		copy(r.data[int(f)<<frameShift:], st.Data[i*frameSize:(i+1)*frameSize])
		r.stored[f] = true
	}
	r.fault, r.hasFault = st.Fault, st.HasFault
	r.invalidate()
}

// counter is a deterministic RDS sampler that counts its calls and fires
// on every seventh.
type counter struct{ calls int }

func (c *counter) sample() bool {
	c.calls++
	return c.calls%7 == 3
}

// TestFramesMatchFlat drives every accessor against the flat reference,
// first at the edges of frames and of the array, then in random
// sequences: reads and stores across frame boundaries and past the end of
// the array, zero stores into frames without storage, stores into watched
// frames, images and snapshots, each with and without an RDS sampler, on
// an array of whole frames and on one whose last frame is partial. After
// every operation the values, the fault latch, the sampler's call count,
// the map generation and the watch must agree, and a frame must have
// storage exactly when a nonzero byte was stored there.
func TestFramesMatchFlat(t *testing.T) {
	for _, size := range []uint32{16 * frameSize, 13*frameSize - 100} {
		for _, sampled := range []bool{false, true} {
			for seed := int64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("size=%d/sampled=%v/seed=%d", size, sampled, seed)
				t.Run(name, func(t *testing.T) { diffFrames(t, size, sampled, seed) })
			}
		}
	}
}

// access is one accessor call of the differential test: accessor k (see
// diffFrames) at pa, with length n and value v where it takes them.
type access struct {
	k  int
	pa uint32
	n  int
	v  uint64
}

func diffFrames(t *testing.T, size uint32, sampled bool, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	m, ref := New(size), newFlat(size)
	var mc, rc counter
	if sampled {
		m.SetInjector(mc.sample)
		ref.inject = rc.sample
	}
	blob := func(n int) []byte {
		b := make([]byte, n)
		if rng.Intn(3) > 0 {
			return b
		}
		for i := range b {
			if rng.Intn(4) == 0 {
				b[i] = byte(rng.Intn(256))
			}
		}
		return b
	}
	step := 0
	do := func(a access) {
		step++
		pa := a.pa
		var op string
		var got, want any
		switch a.k {
		case 0:
			op, got, want = fmt.Sprintf("Byte(%#x)", pa), m.Byte(pa), ref.Byte(pa)
		case 1:
			b := make([]byte, a.n)
			m.Bytes(pa, b)
			w := make([]byte, a.n)
			for i := range w {
				w[i] = ref.Byte(pa + uint32(i))
			}
			op, got, want = fmt.Sprintf("Bytes(%#x, %d)", pa, a.n), b, w
		case 2:
			op, got, want = fmt.Sprintf("ReadLong(%#x)", pa), m.ReadLong(pa), ref.ReadLong(pa)
		case 3:
			op = fmt.Sprintf("SetByte(%#x, %#x)", pa, byte(a.v))
			m.SetByte(pa, byte(a.v))
			ref.SetByte(pa, byte(a.v))
		case 4:
			op = fmt.Sprintf("WriteLong(%#x, %#x)", pa, uint32(a.v))
			m.WriteLong(pa, uint32(a.v))
			ref.WriteLong(pa, uint32(a.v))
		case 5:
			b := blob(a.n)
			op = fmt.Sprintf("Load(%#x, %d bytes)", pa, len(b))
			m.Load(pa, b)
			ref.Load(pa, b)
		case 6:
			op, got, want = fmt.Sprintf("Read(%#x, %d)", pa, a.n), m.Read(pa, a.n), ref.Read(pa, a.n)
		case 7:
			op, got, want = fmt.Sprintf("PeekLong(%#x)", pa), m.PeekLong(pa), uint32(0)
			if b := ref.Peek(pa, 4); ref.in(pa, 4) {
				want = uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
			}
		case 8:
			op, got, want = fmt.Sprintf("PeekByte(%#x)", pa), m.PeekByte(pa), ref.Peek(pa, 1)[0]
		case 9:
			// Watch the frame of a PTE a walk read, as the translation
			// memo does; the stores above then run into watched frames.
			op = fmt.Sprintf("Watch(%#x)", pa)
			m.Watch(pa)
			if f := pa >> frameShift; int(f/64) < len(ref.watched) {
				ref.watched[f/64] |= 1 << (f % 64)
			}
		case 10:
			op = "TakeFault"
			f, ok := m.TakeFault()
			got = []any{f, ok}
			want = []any{ref.fault, ref.hasFault}
			ref.fault, ref.hasFault = Fault{}, false
		case 11:
			op = "ExportState"
			st, rst := m.ExportState(), ref.ExportState()
			got, want = st, rst
			if rng.Intn(3) == 0 {
				op += "+ImportState"
				if err := m.ImportState(st); err != nil {
					t.Fatalf("step %d: ImportState of its own export: %v", step, err)
				}
				ref.ImportState(rst)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s = %v, flat reference %v", step, op, got, want)
		}
		if m.fault != ref.fault || m.hasFault != ref.hasFault {
			t.Fatalf("step %d %s: latch %+v %v, flat reference %+v %v", step, op, m.fault, m.hasFault, ref.fault, ref.hasFault)
		}
		if mc.calls != rc.calls {
			t.Fatalf("step %d %s: %d RDS samples, flat reference %d", step, op, mc.calls, rc.calls)
		}
		if m.mapGen != ref.mapGen || !reflect.DeepEqual(m.watched, ref.watched) {
			t.Fatalf("step %d %s: map generation %d watch %x, flat reference %d %x", step, op, m.mapGen, m.watched, ref.mapGen, ref.watched)
		}
		for f, p := range m.frames {
			if (p != nil) != ref.stored[f] {
				t.Fatalf("step %d %s: frame %d has storage %v, a nonzero byte was stored there %v", step, op, f, p != nil, ref.stored[f])
			}
		}
	}

	// Every accessor first runs at the edges: the first frame's end, the
	// last frames' ends, the array's end and one past it, with empty and
	// wide lengths, and values that are zero, nonzero, and zero in their
	// low bytes only (so a narrow store of them stores zeros).
	for _, pa := range []uint32{0, frameSize - 1, frameSize, size - frameSize - 1, size - 8, size - 4, size - 1, size, size + 1} {
		for _, n := range []int{0, 1, 3, 4, 8, 16} {
			for _, v := range []uint64{0, 0x8877665544332211, 0xFF << 56} {
				for k := 0; k < 12; k++ {
					do(access{k: k, pa: pa, n: n, v: v})
				}
			}
		}
	}

	// Then random accesses. Addresses favour frame boundaries and the end
	// of the array. A value is zero a third of the time, and another third
	// has zeros in its low bytes only.
	addr := func() uint32 {
		switch rng.Intn(4) {
		case 0:
			return uint32(rng.Intn(int(size) + 16))
		case 1:
			return size - 12 + uint32(rng.Intn(24))
		default:
			f := uint32(rng.Intn(int(size)>>frameShift + 1))
			return f<<frameShift - 10 + uint32(rng.Intn(20))
		}
	}
	value := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return rng.Uint64() >> (8 * uint(rng.Intn(8)))
		}
		return rng.Uint64() << (8 * uint(rng.Intn(8)))
	}
	for i := 0; i < 4000; i++ {
		a := access{k: rng.Intn(12), pa: addr(), v: value()}
		switch a.k {
		case 1:
			a.n = rng.Intn(25)
		case 5:
			a.n = rng.Intn(3 * frameSize)
			if rng.Intn(2) == 0 {
				a.pa &^= frameMask
			}
		case 6:
			a.n = rng.Intn(2 * frameSize)
		}
		do(a)
	}
	if !bytes.Equal(image(m), ref.data) {
		t.Fatal("final contents differ from the flat reference")
	}
	if !reflect.DeepEqual(m.ExportState(), ref.ExportState()) {
		t.Fatal("final ExportState differs from the flat reference")
	}
	if sampled && mc.calls == 0 {
		t.Fatal("the sampler was never consulted")
	}
}
