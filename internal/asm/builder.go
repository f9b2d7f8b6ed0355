// Package asm provides two assemblers for the VAX subset described by
// internal/vax: a programmatic Builder used by the synthetic workload
// generators, and a small text assembler (see text.go) for hand-written
// programs. It also provides a disassembler used by tests and tools.
package asm

import (
	"fmt"
	"slices"

	"vax780/internal/vax"
)

// Arg is one operand of an instruction under construction: either a
// concrete specifier or a symbolic reference resolved at Finish time.
type Arg struct {
	spec   vax.Specifier
	label  string // non-empty for symbolic operands
	addend int32  // constant offset applied to a symbolic reference
	kind   argKind
}

type argKind uint8

const (
	argSpec   argKind = iota // concrete specifier
	argPCRel                 // L^label(PC): PC-relative long displacement
	argAbsLbl                // @#label: absolute address of a label
)

// Lit returns a short-literal operand (0..63).
func Lit(n int32) Arg { return Arg{spec: vax.Specifier{Mode: vax.ModeLiteral, Disp: n}} }

// R returns a register operand.
func R(r vax.Reg) Arg { return Arg{spec: vax.Specifier{Mode: vax.ModeRegister, Base: r}} }

// Def returns a register-deferred operand (Rn).
func Def(r vax.Reg) Arg { return Arg{spec: vax.Specifier{Mode: vax.ModeRegDeferred, Base: r}} }

// Inc returns an autoincrement operand (Rn)+.
func Inc(r vax.Reg) Arg { return Arg{spec: vax.Specifier{Mode: vax.ModeAutoInc, Base: r}} }

// Dec returns an autodecrement operand -(Rn).
func Dec(r vax.Reg) Arg { return Arg{spec: vax.Specifier{Mode: vax.ModeAutoDec, Base: r}} }

// IncDef returns an autoincrement-deferred operand @(Rn)+.
func IncDef(r vax.Reg) Arg { return Arg{spec: vax.Specifier{Mode: vax.ModeAutoIncDef, Base: r}} }

// Imm returns an immediate operand I^#v.
func Imm(v uint64) Arg { return Arg{spec: vax.Specifier{Mode: vax.ModeImmediate, Imm: v}} }

// Abs returns an absolute operand @#addr.
func Abs(addr uint32) Arg {
	return Arg{spec: vax.Specifier{Mode: vax.ModeAbsolute, Imm: uint64(addr)}}
}

// D returns a displacement operand d(Rn), choosing the shortest encoding.
func D(d int32, r vax.Reg) Arg {
	m := vax.ModeLongDisp
	switch {
	case d >= -128 && d <= 127:
		m = vax.ModeByteDisp
	case d >= -32768 && d <= 32767:
		m = vax.ModeWordDisp
	}
	return Arg{spec: vax.Specifier{Mode: m, Base: r, Disp: d}}
}

// DDef returns a displacement-deferred operand @d(Rn).
func DDef(d int32, r vax.Reg) Arg {
	m := vax.ModeLongDispDef
	switch {
	case d >= -128 && d <= 127:
		m = vax.ModeByteDispDef
	case d >= -32768 && d <= 32767:
		m = vax.ModeWordDispDef
	}
	return Arg{spec: vax.Specifier{Mode: m, Base: r, Disp: d}}
}

// Idx adds an index register to a memory operand.
func Idx(a Arg, x vax.Reg) Arg {
	a.spec.Indexed = true
	a.spec.Index = x
	return a
}

// LblAddr returns a PC-relative reference to a label, usable wherever an
// address or data operand is wanted; it assembles as L^disp(PC).
func LblAddr(name string) Arg { return Arg{label: name, kind: argPCRel} }

// LblAddrOff returns a PC-relative reference to label+off.
func LblAddrOff(name string, off int32) Arg {
	return Arg{label: name, addend: off, kind: argPCRel}
}

// LblAbsOff returns an absolute (@#) reference to label+off.
func LblAbsOff(name string, off int32) Arg {
	return Arg{label: name, addend: off, kind: argAbsLbl}
}

type fixup struct {
	at     uint32 // image offset of the field to patch
	size   int    // 1, 2 or 4 bytes
	label  string
	addend int32  // constant added to the label's address
	rel    uint32 // if nonzero: PC value the displacement is relative to
	isCase bool   // CASEx table entry: relative to table base
	base   uint32 // table base for case entries
	// op (the mnemonic, or ".long") and operand (1-based, 0 for a branch
	// displacement or case table) place the fixup in error messages.
	op      string
	operand int
}

// loc describes where the fixup sits. It is formatted only for an error,
// never for the fixups of a program that assembles.
func (f fixup) loc() string {
	switch {
	case f.op == ".long":
		return ".long " + f.label
	case f.isCase:
		return f.op + " case table"
	case f.operand > 0:
		return fmt.Sprintf("%s operand %d", f.op, f.operand)
	}
	return f.op + " displacement"
}

// Builder assembles a contiguous image at a fixed origin.
type Builder struct {
	org    uint32
	buf    []byte
	labels map[string]uint32
	fixups []fixup
	errs   []error
}

// NewBuilder returns a Builder assembling at origin org.
func NewBuilder(org uint32) *Builder {
	return &Builder{org: org, labels: make(map[string]uint32)}
}

// PC returns the current assembly address.
func (b *Builder) PC() uint32 { return b.org + uint32(len(b.buf)) }

// Label defines name at the current address.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("asm: duplicate label %q", name))
		return
	}
	b.labels[name] = b.PC()
}

// Op assembles an instruction with the given operands. For branch opcodes
// the final argument must be a label name passed via Br; use Op for
// non-branching instructions and Br for branches.
func (b *Builder) Op(name string, args ...Arg) {
	b.emit(name, "", nil, args...)
}

// Br assembles a branch-displacement instruction; target is a label.
func (b *Builder) Br(name, target string, args ...Arg) {
	b.emit(name, target, nil, args...)
}

// Case assembles a CASEx instruction with a displacement table targeting
// the given labels.
func (b *Builder) Case(name string, sel, base, limit Arg, targets ...string) {
	b.emit(name, "", targets, sel, base, limit)
}

func (b *Builder) emit(name, brTarget string, caseTargets []string, args ...Arg) {
	info := vax.LookupName(name)
	if info == nil {
		b.errs = append(b.errs, fmt.Errorf("asm: unknown mnemonic %q", name))
		return
	}
	if len(args) != len(info.Specs) {
		b.errs = append(b.errs, fmt.Errorf("asm: %s wants %d operands, got %d", name, len(info.Specs), len(args)))
		return
	}
	if (brTarget != "") != (info.BranchDisp != vax.TypeNone) {
		b.errs = append(b.errs, fmt.Errorf("asm: %s branch displacement mismatch", name))
		return
	}
	b.buf = append(b.buf, byte(info.Code))
	for i, a := range args {
		dt := info.Specs[i].Type
		switch a.kind {
		case argSpec:
			nb, err := vax.EncodeSpecifier(b.buf, a.spec, dt)
			if err != nil {
				b.errs = append(b.errs, fmt.Errorf("asm: %s operand %d: %w", name, i+1, err))
				return
			}
			b.buf = nb
		case argPCRel:
			// L^disp(PC): one mode byte + 4 displacement bytes.
			b.buf = append(b.buf, 0xE0|byte(vax.PC))
			at := uint32(len(b.buf))
			b.buf = append(b.buf, 0, 0, 0, 0)
			b.fixups = append(b.fixups, fixup{
				at: at, size: 4, label: a.label, addend: a.addend,
				rel: b.org + uint32(len(b.buf)), op: name, operand: i + 1,
			})
		case argAbsLbl:
			b.buf = append(b.buf, 0x90|byte(vax.PC))
			at := uint32(len(b.buf))
			b.buf = append(b.buf, 0, 0, 0, 0)
			b.fixups = append(b.fixups, fixup{
				at: at, size: 4, label: a.label, addend: a.addend, op: name, operand: i + 1,
			})
		}
	}
	switch info.BranchDisp {
	case vax.TypeByte:
		at := uint32(len(b.buf))
		b.buf = append(b.buf, 0)
		b.fixups = append(b.fixups, fixup{
			at: at, size: 1, label: brTarget, rel: b.org + uint32(len(b.buf)), op: name,
		})
	case vax.TypeWord:
		at := uint32(len(b.buf))
		b.buf = append(b.buf, 0, 0)
		b.fixups = append(b.fixups, fixup{
			at: at, size: 2, label: brTarget, rel: b.org + uint32(len(b.buf)), op: name,
		})
	}
	if info.PCClass == vax.PCCase {
		base := b.org + uint32(len(b.buf))
		for _, tgt := range caseTargets {
			at := uint32(len(b.buf))
			b.buf = append(b.buf, 0, 0)
			b.fixups = append(b.fixups, fixup{
				at: at, size: 2, label: tgt, isCase: true, base: base, op: name,
			})
		}
	} else if len(caseTargets) != 0 {
		b.errs = append(b.errs, fmt.Errorf("asm: %s is not a case instruction", name))
	}
}

// Byte, Word, Long, Quad and Space emit raw data.
func (b *Builder) Byte(vals ...byte) { b.buf = append(b.buf, vals...) }

func (b *Builder) Word(vals ...uint16) {
	for _, v := range vals {
		b.buf = append(b.buf, byte(v), byte(v>>8))
	}
}

func (b *Builder) Long(vals ...uint32) {
	for _, v := range vals {
		b.buf = append(b.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
}

func (b *Builder) Quad(vals ...uint64) {
	for _, v := range vals {
		b.Long(uint32(v), uint32(v>>32))
	}
}

// Space emits n zero bytes.
func (b *Builder) Space(n int) { b.buf = append(b.buf, make([]byte, n)...) }

// Grow reserves room for n more bytes, so a caller that knows how much
// it will emit (a large data region, say) fills one buffer instead of
// regrowing it. It emits nothing.
func (b *Builder) Grow(n int) { b.buf = slices.Grow(b.buf, n) }

// Align pads with zeros to the given power-of-two alignment.
func (b *Builder) Align(n int) {
	for b.PC()%uint32(n) != 0 {
		b.buf = append(b.buf, 0)
	}
}

// Org pads with zeros up to an absolute address (which must not be behind
// the current assembly position).
func (b *Builder) Org(addr uint32) error {
	if addr < b.PC() {
		return fmt.Errorf("asm: .org %#x is behind the current address %#x", addr, b.PC())
	}
	b.Space(int(addr - b.PC()))
	return nil
}

// LongLabel emits a 4-byte cell holding the address of a label.
func (b *Builder) LongLabel(name string) { b.LongLabelOff(name, 0) }

// LongLabelOff emits a 4-byte cell holding label+off.
func (b *Builder) LongLabelOff(name string, off int32) {
	at := uint32(len(b.buf))
	b.buf = append(b.buf, 0, 0, 0, 0)
	b.fixups = append(b.fixups, fixup{at: at, size: 4, label: name, addend: off, op: ".long"})
}

// Image is a finished assembly: bytes to be loaded at Org.
type Image struct {
	Org    uint32
	Bytes  []byte
	Labels map[string]uint32
}

// Addr returns the address of a defined label.
func (im *Image) Addr(name string) (uint32, bool) {
	a, ok := im.Labels[name]
	return a, ok
}

// MustAddr returns the address of a label, panicking if undefined.
func (im *Image) MustAddr(name string) uint32 {
	a, ok := im.Labels[name]
	if !ok {
		panic("asm: undefined label " + name)
	}
	return a
}

// Finish resolves fixups and returns the image.
func (b *Builder) Finish() (*Image, error) {
	for _, f := range b.fixups {
		target, ok := b.labels[f.label]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("asm: undefined label %q in %s", f.label, f.loc()))
			continue
		}
		var v int64
		switch {
		case f.isCase:
			v = int64(target) + int64(f.addend) - int64(f.base)
		case f.rel != 0:
			v = int64(target) + int64(f.addend) - int64(f.rel)
		default:
			v = int64(target) + int64(f.addend)
		}
		switch f.size {
		case 1:
			if v < -128 || v > 127 {
				b.errs = append(b.errs, fmt.Errorf("asm: byte displacement to %q out of range (%d) in %s", f.label, v, f.loc()))
				continue
			}
			b.buf[f.at] = byte(int8(v))
		case 2:
			if v < -32768 || v > 32767 {
				b.errs = append(b.errs, fmt.Errorf("asm: word displacement to %q out of range (%d) in %s", f.label, v, f.loc()))
				continue
			}
			b.buf[f.at] = byte(v)
			b.buf[f.at+1] = byte(v >> 8)
		case 4:
			b.buf[f.at] = byte(v)
			b.buf[f.at+1] = byte(v >> 8)
			b.buf[f.at+2] = byte(v >> 16)
			b.buf[f.at+3] = byte(v >> 24)
		}
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	labels := make(map[string]uint32, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	return &Image{Org: b.org, Bytes: b.buf, Labels: labels}, nil
}
