package cpu

import (
	"fmt"

	"vax780/internal/ucode"
	"vax780/internal/vax"
)

// CS is the control-store map of this microcode build. It is shared by all
// machines (the microcode is fixed; configuration knobs change timing
// parameters, not the store layout) and is what the reduction engine in
// internal/core interprets, just as the paper's analysts interpreted the
// real microcode listing.
//
// CS is sealed (ucode.Store.Seal) once the last microword below is
// defined, making every lookup race-free by construction: a fleet of
// machines stepping on separate goroutines (internal/farm) reads this one
// store; nothing per-machine is rebuilt.
var CS = ucode.NewStore()

// csSealed freezes CS after the uw table — whose initialization performs
// every Define — is built; referencing uw makes the dependency explicit
// so the initializer order cannot regress.
var csSealed = func() bool {
	_ = uw
	CS.Seal()
	return true
}()

func def(name string, row ucode.Row, class ucode.Class) uint16 {
	return CS.Define(name, row, class)
}

// ibStallWord is the handle of a dedicated IB-stall location (§4.3): the
// word the I-Decode dispatches to while the IB holds too few bytes. It is
// a type of its own so that only ibWait counts it, and ibWait counts
// nothing else: tick does not take one and ibWait takes nothing but one.
type ibStallWord uint16

// defIBStall defines an IB-stall location; it is the only maker of an
// ibStallWord.
func defIBStall(name string, row ucode.Row) ibStallWord {
	return ibStallWord(def(name, row, ucode.ClassIBStall))
}

// specBank is the set of specifier-processing microwords for one dispatch
// bank. Bank 0 handles first specifiers (SPEC1), bank 1 all others
// (SPEC2-6). Mode-entry dispatch counts are the source of Table 4.
type specBank struct {
	dispatch   [vax.NumAddrModes]uint16
	stall      ibStallWord
	immExtra   uint16 // second take cycle for 8-byte immediates
	calc       uint16 // effective-address add / autoincrement bump
	index      uint16 // index-register scaling (lives in SPEC2-6 only)
	readPtr    uint16 // indirect-pointer read of the deferred modes
	readData   uint16 // operand data read
	readData2  uint16 // second longword of a quadword operand
	writeData  uint16 // result store to memory
	writeData2 uint16
	storeReg   uint16 // result store to a register (the folded cycle the
	// paper reports in the specifier rows)
}

func defSpecBank(prefix string, row ucode.Row) specBank {
	var b specBank
	for mode := 0; mode < vax.NumAddrModes; mode++ {
		b.dispatch[mode] = def(fmt.Sprintf("%s.disp.%s", prefix, vax.AddrMode(mode)), row, ucode.ClassDispatch)
	}
	b.stall = defIBStall(prefix+".stall", row)
	b.immExtra = def(prefix+".imm.extra", row, ucode.ClassDispatch)
	b.calc = def(prefix+".calc", row, ucode.ClassCompute)
	b.index = def(prefix+".index", row, ucode.ClassCompute)
	b.readPtr = def(prefix+".read.ptr", row, ucode.ClassRead)
	b.readData = def(prefix+".read.data", row, ucode.ClassRead)
	b.readData2 = def(prefix+".read.data2", row, ucode.ClassRead)
	b.writeData = def(prefix+".write.data", row, ucode.ClassWrite)
	b.writeData2 = def(prefix+".write.data2", row, ucode.ClassWrite)
	b.storeReg = def(prefix+".store.reg", row, ucode.ClassCompute)
	return b
}

// uw holds every microword handle the engine executes. Names are the keys
// the reduction engine looks up.
var uw = struct {
	// Decode.
	ird       uint16
	irdFolded uint16
	irdStall  ibStallWord

	// Specifier banks: [0] = SPEC1, [1] = SPEC2-6.
	spec [2]specBank

	// Branch displacement.
	bdisp      uint16
	bdispStall ibStallWord

	// Microtrap.
	abort uint16

	// Memory management (TB miss service, alignment).
	mmTBMissEntryD uint16
	mmTBMissEntryI uint16
	mmTBMissWork   uint16
	mmTBMissRead   uint16
	mmTBMissDone   uint16
	mmAlignEntry   uint16
	mmAlignWork    uint16

	// Interrupts and exceptions.
	irqEntry uint16
	irqWork  uint16
	irqPush  uint16
	irqVec   uint16
	excEntry uint16
	excWork  uint16
	excPush  uint16
	excVec   uint16
	mcEntry  uint16
	mcWork   uint16
	mcPush   uint16
	mcVec    uint16

	// SIMPLE execute phase.
	sAluEntry   uint16
	sAluExtra   uint16
	sPushWrite  uint16
	brCondEntry uint16
	brCondTaken uint16
	brLoopEntry uint16
	brLoopTaken uint16
	brLBEntry   uint16
	brLBTaken   uint16
	brBSBEntry  uint16
	brBSBPush   uint16
	brBSBTaken  uint16
	brJSBEntry  uint16
	brJSBPush   uint16
	brJSBTaken  uint16
	brRSBEntry  uint16
	brRSBRead   uint16
	brRSBTaken  uint16
	brJMPEntry  uint16
	brJMPTaken  uint16
	brCaseEntry uint16
	brCaseWork  uint16
	brCaseRead  uint16
	brCaseTaken uint16

	// FIELD execute phase.
	fldEntry uint16
	fldWork  uint16
	fldRead  uint16
	fldWrite uint16
	bbEntry  uint16
	bbWork   uint16
	bbRead   uint16
	bbWrite  uint16
	bbTaken  uint16

	// FLOAT execute phase.
	fpEntry uint16
	fpWork  uint16
	fpWrite uint16

	// CALL/RET execute phase.
	callEntry    uint16
	callWork     uint16
	callMaskRead uint16
	callPush     uint16
	callTaken    uint16
	retEntry     uint16
	retWork      uint16
	retPop       uint16
	retTaken     uint16
	pushrEntry   uint16
	pushrWork    uint16
	pushrPush    uint16
	poprEntry    uint16
	poprWork     uint16
	poprPop      uint16

	// SYSTEM execute phase.
	chmEntry    uint16
	chmWork     uint16
	chmPush     uint16
	chmVec      uint16
	chmTaken    uint16
	reiEntry    uint16
	reiWork     uint16
	reiPop      uint16
	reiTaken    uint16
	svpctxEntry uint16
	svpctxWork  uint16
	svpctxRead  uint16
	svpctxStore uint16
	ldpctxEntry uint16
	ldpctxWork  uint16
	ldpctxLoad  uint16
	ldpctxPush  uint16
	queueEntry  uint16
	queueWork   uint16
	queueRead   uint16
	queueWrite  uint16
	probeEntry  uint16
	probeWork   uint16
	mtprEntry   uint16
	mtprWork    uint16
	mtprSIRR    uint16
	mfprEntry   uint16
	pswEntry    uint16
	haltEntry   uint16

	// CHARACTER execute phase.
	chEntry uint16
	chSetup uint16
	chRead  uint16
	chWork  uint16
	chWrite uint16
	chByte  uint16
	chDone  uint16

	// DECIMAL execute phase.
	deEntry uint16
	deSetup uint16
	deRead  uint16
	deWork  uint16
	deWrite uint16
	deDone  uint16
}{
	ird:       def("decode.ird", ucode.RowDecode, ucode.ClassDispatch),
	irdFolded: def("decode.ird.folded", ucode.RowDecode, ucode.ClassMarker),
	irdStall:  defIBStall("decode.ird.stall", ucode.RowDecode),

	spec: [2]specBank{
		defSpecBank("spec1", ucode.RowSpec1),
		defSpecBank("spec26", ucode.RowSpec26),
	},

	bdisp:      def("bdisp.calc", ucode.RowBDisp, ucode.ClassDispatch),
	bdispStall: defIBStall("bdisp.stall", ucode.RowBDisp),

	abort: def("abort.utrap", ucode.RowAbort, ucode.ClassCompute),

	mmTBMissEntryD: def("mm.tbmiss.d.entry", ucode.RowMemMgmt, ucode.ClassCompute),
	mmTBMissEntryI: def("mm.tbmiss.i.entry", ucode.RowMemMgmt, ucode.ClassCompute),
	mmTBMissWork:   def("mm.tbmiss.work", ucode.RowMemMgmt, ucode.ClassCompute),
	mmTBMissRead:   def("mm.tbmiss.read", ucode.RowMemMgmt, ucode.ClassRead),
	mmTBMissDone:   def("mm.tbmiss.done", ucode.RowMemMgmt, ucode.ClassCompute),
	mmAlignEntry:   def("mm.align.entry", ucode.RowMemMgmt, ucode.ClassCompute),
	mmAlignWork:    def("mm.align.work", ucode.RowMemMgmt, ucode.ClassCompute),

	irqEntry: def("int.irq.entry", ucode.RowIntExcept, ucode.ClassCompute),
	irqWork:  def("int.irq.work", ucode.RowIntExcept, ucode.ClassCompute),
	irqPush:  def("int.irq.push", ucode.RowIntExcept, ucode.ClassWrite),
	irqVec:   def("int.irq.vec", ucode.RowIntExcept, ucode.ClassRead),
	excEntry: def("int.exc.entry", ucode.RowIntExcept, ucode.ClassCompute),
	excWork:  def("int.exc.work", ucode.RowIntExcept, ucode.ClassCompute),
	excPush:  def("int.exc.push", ucode.RowIntExcept, ucode.ClassWrite),
	excVec:   def("int.exc.vec", ucode.RowIntExcept, ucode.ClassRead),
	mcEntry:  def("int.mcheck.entry", ucode.RowIntExcept, ucode.ClassCompute),
	mcWork:   def("int.mcheck.work", ucode.RowIntExcept, ucode.ClassCompute),
	mcPush:   def("int.mcheck.push", ucode.RowIntExcept, ucode.ClassWrite),
	mcVec:    def("int.mcheck.vec", ucode.RowIntExcept, ucode.ClassRead),

	sAluEntry:   def("exec.simple.alu.entry", ucode.RowSimple, ucode.ClassCompute),
	sAluExtra:   def("exec.simple.alu.extra", ucode.RowSimple, ucode.ClassCompute),
	sPushWrite:  def("exec.simple.push.write", ucode.RowSimple, ucode.ClassWrite),
	brCondEntry: def("exec.br.cond.entry", ucode.RowSimple, ucode.ClassCompute),
	brCondTaken: def("exec.br.cond.taken", ucode.RowSimple, ucode.ClassCompute),
	brLoopEntry: def("exec.br.loop.entry", ucode.RowSimple, ucode.ClassCompute),
	brLoopTaken: def("exec.br.loop.taken", ucode.RowSimple, ucode.ClassCompute),
	brLBEntry:   def("exec.br.lowbit.entry", ucode.RowSimple, ucode.ClassCompute),
	brLBTaken:   def("exec.br.lowbit.taken", ucode.RowSimple, ucode.ClassCompute),
	brBSBEntry:  def("exec.br.bsb.entry", ucode.RowSimple, ucode.ClassCompute),
	brBSBPush:   def("exec.br.bsb.push", ucode.RowSimple, ucode.ClassWrite),
	brBSBTaken:  def("exec.br.bsb.taken", ucode.RowSimple, ucode.ClassCompute),
	brJSBEntry:  def("exec.br.jsb.entry", ucode.RowSimple, ucode.ClassCompute),
	brJSBPush:   def("exec.br.jsb.push", ucode.RowSimple, ucode.ClassWrite),
	brJSBTaken:  def("exec.br.jsb.taken", ucode.RowSimple, ucode.ClassCompute),
	brRSBEntry:  def("exec.br.rsb.entry", ucode.RowSimple, ucode.ClassCompute),
	brRSBRead:   def("exec.br.rsb.read", ucode.RowSimple, ucode.ClassRead),
	brRSBTaken:  def("exec.br.rsb.taken", ucode.RowSimple, ucode.ClassCompute),
	brJMPEntry:  def("exec.br.jmp.entry", ucode.RowSimple, ucode.ClassCompute),
	brJMPTaken:  def("exec.br.jmp.taken", ucode.RowSimple, ucode.ClassCompute),
	brCaseEntry: def("exec.br.case.entry", ucode.RowSimple, ucode.ClassCompute),
	brCaseWork:  def("exec.br.case.work", ucode.RowSimple, ucode.ClassCompute),
	brCaseRead:  def("exec.br.case.read", ucode.RowSimple, ucode.ClassRead),
	brCaseTaken: def("exec.br.case.taken", ucode.RowSimple, ucode.ClassCompute),

	fldEntry: def("exec.field.entry", ucode.RowField, ucode.ClassCompute),
	fldWork:  def("exec.field.work", ucode.RowField, ucode.ClassCompute),
	fldRead:  def("exec.field.read", ucode.RowField, ucode.ClassRead),
	fldWrite: def("exec.field.write", ucode.RowField, ucode.ClassWrite),
	bbEntry:  def("exec.bb.entry", ucode.RowField, ucode.ClassCompute),
	bbWork:   def("exec.bb.work", ucode.RowField, ucode.ClassCompute),
	bbRead:   def("exec.bb.read", ucode.RowField, ucode.ClassRead),
	bbWrite:  def("exec.bb.write", ucode.RowField, ucode.ClassWrite),
	bbTaken:  def("exec.bb.taken", ucode.RowField, ucode.ClassCompute),

	fpEntry: def("exec.float.entry", ucode.RowFloat, ucode.ClassCompute),
	fpWork:  def("exec.float.work", ucode.RowFloat, ucode.ClassCompute),
	fpWrite: def("exec.float.write", ucode.RowFloat, ucode.ClassWrite),

	callEntry:    def("exec.call.entry", ucode.RowCallRet, ucode.ClassCompute),
	callWork:     def("exec.call.work", ucode.RowCallRet, ucode.ClassCompute),
	callMaskRead: def("exec.call.maskread", ucode.RowCallRet, ucode.ClassRead),
	callPush:     def("exec.call.push", ucode.RowCallRet, ucode.ClassWrite),
	callTaken:    def("exec.call.taken", ucode.RowCallRet, ucode.ClassCompute),
	retEntry:     def("exec.ret.entry", ucode.RowCallRet, ucode.ClassCompute),
	retWork:      def("exec.ret.work", ucode.RowCallRet, ucode.ClassCompute),
	retPop:       def("exec.ret.pop", ucode.RowCallRet, ucode.ClassRead),
	retTaken:     def("exec.ret.taken", ucode.RowCallRet, ucode.ClassCompute),
	pushrEntry:   def("exec.pushr.entry", ucode.RowCallRet, ucode.ClassCompute),
	pushrWork:    def("exec.pushr.work", ucode.RowCallRet, ucode.ClassCompute),
	pushrPush:    def("exec.pushr.push", ucode.RowCallRet, ucode.ClassWrite),
	poprEntry:    def("exec.popr.entry", ucode.RowCallRet, ucode.ClassCompute),
	poprWork:     def("exec.popr.work", ucode.RowCallRet, ucode.ClassCompute),
	poprPop:      def("exec.popr.pop", ucode.RowCallRet, ucode.ClassRead),

	chmEntry:    def("exec.sys.chm.entry", ucode.RowSystem, ucode.ClassCompute),
	chmWork:     def("exec.sys.chm.work", ucode.RowSystem, ucode.ClassCompute),
	chmPush:     def("exec.sys.chm.push", ucode.RowSystem, ucode.ClassWrite),
	chmVec:      def("exec.sys.chm.vec", ucode.RowSystem, ucode.ClassRead),
	chmTaken:    def("exec.sys.chm.taken", ucode.RowSystem, ucode.ClassCompute),
	reiEntry:    def("exec.sys.rei.entry", ucode.RowSystem, ucode.ClassCompute),
	reiWork:     def("exec.sys.rei.work", ucode.RowSystem, ucode.ClassCompute),
	reiPop:      def("exec.sys.rei.pop", ucode.RowSystem, ucode.ClassRead),
	reiTaken:    def("exec.sys.rei.taken", ucode.RowSystem, ucode.ClassCompute),
	svpctxEntry: def("exec.sys.svpctx.entry", ucode.RowSystem, ucode.ClassCompute),
	svpctxWork:  def("exec.sys.svpctx.work", ucode.RowSystem, ucode.ClassCompute),
	svpctxRead:  def("exec.sys.svpctx.read", ucode.RowSystem, ucode.ClassRead),
	svpctxStore: def("exec.sys.svpctx.store", ucode.RowSystem, ucode.ClassWrite),
	ldpctxEntry: def("exec.sys.ldpctx.entry", ucode.RowSystem, ucode.ClassCompute),
	ldpctxWork:  def("exec.sys.ldpctx.work", ucode.RowSystem, ucode.ClassCompute),
	ldpctxLoad:  def("exec.sys.ldpctx.load", ucode.RowSystem, ucode.ClassRead),
	ldpctxPush:  def("exec.sys.ldpctx.push", ucode.RowSystem, ucode.ClassWrite),
	queueEntry:  def("exec.sys.queue.entry", ucode.RowSystem, ucode.ClassCompute),
	queueWork:   def("exec.sys.queue.work", ucode.RowSystem, ucode.ClassCompute),
	queueRead:   def("exec.sys.queue.read", ucode.RowSystem, ucode.ClassRead),
	queueWrite:  def("exec.sys.queue.write", ucode.RowSystem, ucode.ClassWrite),
	probeEntry:  def("exec.sys.probe.entry", ucode.RowSystem, ucode.ClassCompute),
	probeWork:   def("exec.sys.probe.work", ucode.RowSystem, ucode.ClassCompute),
	mtprEntry:   def("exec.sys.mtpr.entry", ucode.RowSystem, ucode.ClassCompute),
	mtprWork:    def("exec.sys.mtpr.work", ucode.RowSystem, ucode.ClassCompute),
	mtprSIRR:    def("exec.sys.mtpr.sirr", ucode.RowSystem, ucode.ClassCompute),
	mfprEntry:   def("exec.sys.mfpr.entry", ucode.RowSystem, ucode.ClassCompute),
	pswEntry:    def("exec.sys.psw.entry", ucode.RowSystem, ucode.ClassCompute),
	haltEntry:   def("exec.sys.halt.entry", ucode.RowSystem, ucode.ClassCompute),

	chEntry: def("exec.char.entry", ucode.RowCharacter, ucode.ClassCompute),
	chSetup: def("exec.char.setup", ucode.RowCharacter, ucode.ClassCompute),
	chRead:  def("exec.char.read", ucode.RowCharacter, ucode.ClassRead),
	chWork:  def("exec.char.work", ucode.RowCharacter, ucode.ClassCompute),
	chWrite: def("exec.char.write", ucode.RowCharacter, ucode.ClassWrite),
	chByte:  def("exec.char.byte", ucode.RowCharacter, ucode.ClassCompute),
	chDone:  def("exec.char.done", ucode.RowCharacter, ucode.ClassCompute),

	deEntry: def("exec.dec.entry", ucode.RowDecimal, ucode.ClassCompute),
	deSetup: def("exec.dec.setup", ucode.RowDecimal, ucode.ClassCompute),
	deRead:  def("exec.dec.read", ucode.RowDecimal, ucode.ClassRead),
	deWork:  def("exec.dec.work", ucode.RowDecimal, ucode.ClassCompute),
	deWrite: def("exec.dec.write", ucode.RowDecimal, ucode.ClassWrite),
	deDone:  def("exec.dec.done", ucode.RowDecimal, ucode.ClassCompute),
}
