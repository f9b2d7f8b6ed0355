package asm

import (
	"fmt"
	"strings"
	"testing"

	"vax780/internal/vax"
)

// TestDisasmRoundTrip proves, for every opcode in the architecture table,
// that assemble → disassemble → reassemble is the identity on the encoded
// bytes. Each opcode is emitted once with operand forms that cycle through
// the addressing modes whose textual rendering is parseable by the text
// assembler, so the test also pins down the Specifier.String syntax.
//
// Because it iterates vax.All(), an opcode added to the table without
// decode/encode support fails here before it ever reaches the simulator.
func TestDisasmRoundTrip(t *testing.T) {
	const org = 0x200

	for _, info := range vax.All() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			b := NewBuilder(org)
			b.Label("start")
			args := make([]Arg, len(info.Specs))
			for i, os := range info.Specs {
				args[i] = stableArg(i, os)
			}
			switch {
			case info.PCClass == vax.PCCase:
				// Zero case targets: opcode + three specifiers, empty
				// displacement table.
				b.Case(info.Name, args[0], args[1], args[2])
			case info.BranchDisp != vax.TypeNone:
				b.Br(info.Name, "start", args...)
			default:
				b.Op(info.Name, args...)
			}
			im, err := b.Finish()
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}

			text, n, err := DisasmOne(im.Bytes, im.Org, 0)
			if err != nil {
				t.Fatalf("disassemble % x: %v", im.Bytes, err)
			}
			if n != len(im.Bytes) {
				t.Fatalf("disassembler consumed %d of %d bytes of % x", n, len(im.Bytes), im.Bytes)
			}

			// Branch targets disassemble as absolute addresses; rewrite the
			// known target back to its label for the text assembler.
			src := text
			if info.BranchDisp != vax.TypeNone {
				src = strings.Replace(src, fmt.Sprintf("%#x", uint32(org)), "start", 1)
			}
			im2, err := Assemble(org, "start:\n"+src)
			if err != nil {
				t.Fatalf("reassemble %q: %v", src, err)
			}
			if string(im2.Bytes) != string(im.Bytes) {
				t.Fatalf("round trip diverged for %q:\n  first  % x\n  second % x", text, im.Bytes, im2.Bytes)
			}

			// Fixpoint: disassembling the reassembled bytes must reproduce
			// the same text.
			text2, _, err := DisasmOne(im2.Bytes, im2.Org, 0)
			if err != nil {
				t.Fatalf("second disassembly: %v", err)
			}
			if text2 != text {
				t.Fatalf("disassembly not a fixpoint:\n  first  %q\n  second %q", text, text2)
			}
		})
	}
}

// stableArg picks an operand whose textual form survives the round trip,
// cycling modes by position so successive operands of one instruction
// exercise different encodings. Register numbers avoid PC and the
// architectural registers.
func stableArg(i int, os vax.OperandSpec) Arg {
	switch os.Access {
	case vax.AccessRead:
		forms := []Arg{
			Lit(int32(9 + i)),
			Def(vax.R2),
			Inc(vax.R3),
			D(8, vax.R5),
			Idx(Def(vax.R6), vax.R7),
			Imm(200),
		}
		return forms[i%len(forms)]
	case vax.AccessWrite, vax.AccessModify:
		forms := []Arg{
			R(vax.R4),
			Def(vax.R8),
			Dec(vax.R9),
			D(-12, vax.R10),
		}
		return forms[i%len(forms)]
	case vax.AccessAddr:
		forms := []Arg{
			Def(vax.R3),
			D(100, vax.R5),
			Abs(0x1234),
		}
		return forms[i%len(forms)]
	case vax.AccessField:
		forms := []Arg{
			R(vax.R2),
			Def(vax.R11),
		}
		return forms[i%len(forms)]
	}
	return R(vax.R0)
}
