package cpu

import (
	"context"
	"errors"
	"testing"

	"vax780/internal/asm"
	"vax780/internal/vax"
)

// TestDecodeMemoSelfModifyingCode: an instruction the decode memo holds
// is rewritten in memory, and its next execution decodes the new bytes.
// The first pass runs MOVL S^#1, R0 at top and stores 2 over its literal
// byte; the second pass must load 2. A memo that trusted the address
// without comparing the bytes would load 1 again.
func TestDecodeMemoSelfModifyingCode(t *testing.T) {
	m, _, im := runImage(t, `
top:	MOVL	S^#1, R0
	TSTL	R1
	BNEQ	done
	MOVB	S^#2, @#top+1
	INCL	R1
	BRB	top
done:	HALT
`)
	if m.R[0] != 2 {
		t.Errorf("R0 = %d after the literal was rewritten to 2", m.R[0])
	}
	// The memo served the run: the slot of top holds the rewritten
	// instruction, stored when the second pass decoded it.
	e := &m.dm[dmemoSlot(im.Org)]
	if e.pa != im.Org || e.n != 3 || e.code[0] != 0x5002D0 {
		t.Errorf("memo slot of top = pa %#x, %d bytes %#x; want pa %#x, 3 bytes 0x5002d0", e.pa, e.n, e.code[0], im.Org)
	}
}

// TestDecodeMemoAllocatedByRun: single-stepping never allocates the memo;
// the first RunCtx does.
func TestDecodeMemoAllocatedByRun(t *testing.T) {
	im, err := asm.Assemble(0x1000, "\tMOVL\tS^#1, R0\n\tHALT\n")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(Config{MemBytes: 1 << 20})
	m.Mem.Load(im.Org, im.Bytes)
	m.SetPC(im.Org)
	m.StepInstruction()
	if m.dm != nil {
		t.Fatal("StepInstruction allocated the decode memo")
	}
	m.Run(100)
	if m.dm == nil {
		t.Fatal("Run did not allocate the decode memo")
	}
}

// TestRunCtxCancelsAtInstructionBoundary: RunCtx polls its context before
// every instruction, so a cancel issued from the hook after instruction k
// stops the run after exactly k instructions.
func TestRunCtxCancelsAtInstructionBoundary(t *testing.T) {
	im, err := asm.Assemble(0x1000, "top:\tINCL\tR0\n\tBRB\ttop\n")
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(Config{MemBytes: 1 << 20})
	m.Mem.Load(im.Org, im.Bytes)
	m.R[vax.SP] = 0x8000
	m.SetPC(im.Org)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const k = 37
	m.OnInstruction = func(m *Machine) {
		if m.Instructions() == k {
			cancel()
		}
	}
	res := m.RunCtx(ctx, 1_000_000)
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("RunCtx returned %v, want context.Canceled", res.Err)
	}
	if res.Instructions != k {
		t.Errorf("RunCtx ran %d instructions, want exactly %d", res.Instructions, k)
	}
}
