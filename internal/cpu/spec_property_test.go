package cpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"vax780/internal/asm"
	"vax780/internal/vax"
)

// buildAndRun assembles a builder program and runs it to HALT.
func buildAndRun(t *testing.T, build func(b *asm.Builder)) *Machine {
	t.Helper()
	b := asm.NewBuilder(0x1000)
	build(b)
	im, err := b.Finish()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(Config{MemBytes: 1 << 20})
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = 0x8000
	m.SetPC(im.Org)
	res := m.Run(1_000_000)
	if res.Err != nil || !res.Halted {
		t.Fatalf("run: halted=%v err=%v", res.Halted, res.Err)
	}
	return m
}

// TestPropertySpecifierEffectiveAddress drives every memory addressing
// mode with randomized parameters: a value is planted at the effective
// address the mode should produce, then loaded through the mode; the
// loaded value must match.
func TestPropertySpecifierEffectiveAddress(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		base := uint32(0x4000 + 4*r.Intn(1024))
		val := uint32(r.Uint32())
		disp := int32(4 * (r.Intn(64) - 32))
		idx := uint32(r.Intn(16))
		ptrCell := uint32(0x9000 + 4*r.Intn(64))
		mode := r.Intn(7)

		m := buildAndRun(t, func(b *asm.Builder) {
			// Plant the value where the mode under test must find it.
			switch mode {
			case 0: // (Rn)
				b.Op("MOVL", asm.Imm(uint64(val)), asm.Abs(base))
				b.Op("MOVL", asm.Imm(uint64(base)), asm.R(vax.R1))
				b.Op("MOVL", asm.Def(vax.R1), asm.R(vax.R2))
			case 1: // disp(Rn)
				ea := uint32(int64(base) + int64(disp))
				b.Op("MOVL", asm.Imm(uint64(val)), asm.Abs(ea))
				b.Op("MOVL", asm.Imm(uint64(base)), asm.R(vax.R1))
				b.Op("MOVL", asm.D(disp, vax.R1), asm.R(vax.R2))
			case 2: // (Rn)+ leaves the register bumped
				b.Op("MOVL", asm.Imm(uint64(val)), asm.Abs(base))
				b.Op("MOVL", asm.Imm(uint64(base)), asm.R(vax.R1))
				b.Op("MOVL", asm.Inc(vax.R1), asm.R(vax.R2))
			case 3: // -(Rn) pre-decrements
				b.Op("MOVL", asm.Imm(uint64(val)), asm.Abs(base))
				b.Op("MOVL", asm.Imm(uint64(base+4)), asm.R(vax.R1))
				b.Op("MOVL", asm.Dec(vax.R1), asm.R(vax.R2))
			case 4: // @(Rn)+ follows the pointer
				b.Op("MOVL", asm.Imm(uint64(val)), asm.Abs(base))
				b.Op("MOVL", asm.Imm(uint64(base)), asm.Abs(ptrCell))
				b.Op("MOVL", asm.Imm(uint64(ptrCell)), asm.R(vax.R1))
				b.Op("MOVL", asm.IncDef(vax.R1), asm.R(vax.R2))
			case 5: // @disp(Rn) double-level
				ea := uint32(int64(ptrCell) + int64(disp))
				b.Op("MOVL", asm.Imm(uint64(val)), asm.Abs(base))
				b.Op("MOVL", asm.Imm(uint64(base)), asm.Abs(ea))
				b.Op("MOVL", asm.Imm(uint64(ptrCell)), asm.R(vax.R1))
				b.Op("MOVL", asm.DDef(disp, vax.R1), asm.R(vax.R2))
			default: // disp(Rn)[Rx] scales by operand size
				ea := uint32(int64(base) + int64(disp) + int64(4*idx))
				b.Op("MOVL", asm.Imm(uint64(val)), asm.Abs(ea))
				b.Op("MOVL", asm.Imm(uint64(base)), asm.R(vax.R1))
				b.Op("MOVL", asm.Imm(uint64(idx)), asm.R(vax.R3))
				b.Op("MOVL", asm.Idx(asm.D(disp, vax.R1), vax.R3), asm.R(vax.R2))
			}
			b.Op("HALT")
		})
		if m.R[2] != val {
			t.Logf("seed %d mode %d: got %#x want %#x", seed, mode, m.R[2], val)
			return false
		}
		// Side effects of the auto modes.
		switch mode {
		case 2:
			if m.R[1] != base+4 {
				return false
			}
		case 3:
			if m.R[1] != base {
				return false
			}
		case 4:
			if m.R[1] != ptrCell+4 {
				return false
			}
		}
		return true
	}
	// A nil quick.Config Rand is seeded from the clock; seed it so a
	// failing input reproduces on re-run (the determinism contract
	// applied to the tests themselves).
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(0x780))}); err != nil {
		t.Error(err)
	}
}

// TestPropertyALUMatchesGo compares the machine's integer arithmetic
// against Go's on random operands, through randomly chosen operand routes
// (register, memory, immediate).
func TestPropertyALUMatchesGo(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := r.Uint32()
		bv := r.Uint32()
		op := r.Intn(6)
		viaMem := r.Intn(2) == 1

		var want uint32
		var mnem string
		switch op {
		case 0:
			mnem, want = "ADDL3", a+bv
		case 1:
			mnem, want = "SUBL3", bv-a // SUBL3 sub, min, dst
		case 2:
			mnem, want = "BISL3", a|bv
		case 3:
			mnem, want = "BICL3", ^a&bv
		case 4:
			mnem, want = "XORL3", a^bv
		default:
			mnem, want = "MULL3", uint32(int32(a)*int32(bv))
		}
		m := buildAndRun(t, func(b *asm.Builder) {
			if viaMem {
				b.Op("MOVL", asm.Imm(uint64(a)), asm.Abs(0x5000))
				b.Op("MOVL", asm.Imm(uint64(bv)), asm.Abs(0x5004))
				b.Op(mnem, asm.Abs(0x5000), asm.Abs(0x5004), asm.Abs(0x5008))
				b.Op("MOVL", asm.Abs(0x5008), asm.R(vax.R2))
			} else {
				b.Op("MOVL", asm.Imm(uint64(a)), asm.R(vax.R0))
				b.Op("MOVL", asm.Imm(uint64(bv)), asm.R(vax.R1))
				b.Op(mnem, asm.R(vax.R0), asm.R(vax.R1), asm.R(vax.R2))
			}
			b.Op("HALT")
		})
		return m.R[2] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(0x781))}); err != nil {
		t.Error(err)
	}
}

// TestPropertyConditionCodesMatchComparison: after CMPL a,b the branch
// predicates must agree with Go's comparisons, signed and unsigned.
func TestPropertyConditionCodesMatchComparison(t *testing.T) {
	f := func(a, bv uint32) bool {
		m := buildAndRun(t, func(b *asm.Builder) {
			b.Op("MOVL", asm.Imm(uint64(a)), asm.R(vax.R0))
			b.Op("MOVL", asm.Imm(uint64(bv)), asm.R(vax.R1))
			// Record each predicate in a register. Every VAX instruction
			// sets condition codes, so the compare is redone per predicate.
			rec := func(br string, dst vax.Reg) {
				no := "n" + br + dst.String()
				b.Op("CLRL", asm.R(dst))
				b.Op("CMPL", asm.R(vax.R0), asm.R(vax.R1))
				b.Br(br, no)
				// fallthrough = branch NOT taken
				b.Br("BRB", "e"+br+dst.String())
				b.Label(no)
				b.Op("MOVL", asm.Lit(1), asm.R(dst))
				b.Label("e" + br + dst.String())
			}
			rec("BLSS", vax.R2) // signed <
			rec("BLEQ", vax.R3) // signed <=
			rec("BCS", vax.R4)  // unsigned < (C set)
			rec("BEQL", vax.R5) // equal
			b.Op("HALT")
		})
		signedLess := int32(a) < int32(bv)
		signedLeq := int32(a) <= int32(bv)
		unsLess := a < bv
		eq := a == bv
		return (m.R[2] == 1) == signedLess &&
			(m.R[3] == 1) == signedLeq &&
			(m.R[4] == 1) == unsLess &&
			(m.R[5] == 1) == eq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(0x782))}); err != nil {
		t.Error(err)
	}
}
