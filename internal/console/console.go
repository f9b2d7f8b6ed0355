// Package console is an operator's console for the simulated VAX-11/780:
// single-stepping, breakpoints, register and memory examination,
// disassembly at the PC, and (when a monitor is attached) live histogram
// summaries. It is line-oriented and scriptable, in the spirit of the
// machine's console processor.
package console

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"vax780/internal/asm"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/mem"
	"vax780/internal/mmu"
	"vax780/internal/vax"
)

// Console drives one machine.
type Console struct {
	m      *cpu.Machine
	mon    *core.Monitor // optional
	out    io.Writer
	breaks map[uint32]bool
	quit   bool
}

// New returns a console for the machine. mon may be nil.
func New(m *cpu.Machine, mon *core.Monitor, out io.Writer) *Console {
	return &Console{m: m, mon: mon, out: out, breaks: map[uint32]bool{}}
}

// Run reads commands until EOF or "q". Unknown commands print help.
func (c *Console) Run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	for !c.quit && sc.Scan() {
		c.Exec(sc.Text())
	}
	return sc.Err()
}

// Exec executes one command line.
func (c *Console) Exec(line string) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return
	}
	arg := func(i int, def uint64) uint64 {
		if i >= len(fields) {
			return def
		}
		v, err := strconv.ParseUint(strings.TrimPrefix(fields[i], "0x"), 16, 64)
		if err != nil {
			v2, err2 := strconv.ParseUint(fields[i], 10, 64)
			if err2 != nil {
				fmt.Fprintf(c.out, "?bad number %q\n", fields[i])
				return def
			}
			return v2
		}
		return v
	}
	switch fields[0] {
	case "s", "step":
		c.step(int(arg(1, 1)))
	case "c", "continue":
		c.cont(arg(1, 1_000_000))
	case "b", "break":
		if len(fields) < 2 {
			fmt.Fprintln(c.out, "?break needs an address")
			return
		}
		c.breaks[uint32(arg(1, 0))] = true
		fmt.Fprintf(c.out, "break at %08x\n", uint32(arg(1, 0)))
	case "bd":
		delete(c.breaks, uint32(arg(1, 0)))
	case "bl":
		addrs := make([]uint32, 0, len(c.breaks))
		for a := range c.breaks {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			fmt.Fprintf(c.out, "break %08x\n", a)
		}
	case "r", "regs":
		c.regs()
	case "e", "examine":
		c.examine(uint32(arg(1, 0)), int(arg(2, 4)))
	case "d", "disasm":
		addr := c.m.PCVal()
		if len(fields) > 1 {
			addr = uint32(arg(1, uint64(addr)))
		}
		c.disasm(addr, int(arg(2, 8)))
	case "h", "hist":
		c.hist(int(arg(1, 8)))
	case "q", "quit":
		c.quit = true
	case "?", "help":
		c.help()
	default:
		fmt.Fprintf(c.out, "?unknown command %q (try ?)\n", fields[0])
	}
}

func (c *Console) help() {
	fmt.Fprint(c.out, `commands:
  s [n]        step n instructions (default 1)
  c [cycles]   continue for a cycle budget, honoring breakpoints
  b <addr>     set a breakpoint (hex)
  bd <addr>    delete a breakpoint
  bl           list breakpoints
  r            show registers and condition codes
  e <addr> [n] examine n longwords (hex address)
  d [addr] [n] disassemble n instructions (default: at PC)
  h [n]        histogram summary: CPI and the n hottest locations
  q            quit
`)
}

func (c *Console) step(n int) {
	for i := 0; i < n && !c.m.Halted() && c.m.Err() == nil; i++ {
		c.m.StepInstruction()
	}
	c.status()
	c.disasm(c.m.PCVal(), 1)
}

func (c *Console) cont(budget uint64) {
	start := c.m.Cycle()
	for !c.m.Halted() && c.m.Err() == nil && c.m.Cycle()-start < budget {
		c.m.StepInstruction()
		if c.breaks[c.m.PCVal()] {
			fmt.Fprintf(c.out, "break at %08x\n", c.m.PCVal())
			break
		}
	}
	c.status()
}

func (c *Console) status() {
	switch {
	case c.m.Err() != nil:
		fmt.Fprintf(c.out, "machine error: %v\n", c.m.Err())
	case c.m.Halted():
		fmt.Fprintf(c.out, "halted at cycle %d (%d instructions)\n", c.m.Cycle(), c.m.Instructions())
	default:
		fmt.Fprintf(c.out, "pc=%08x cycle=%d instr=%d\n", c.m.PCVal(), c.m.Cycle(), c.m.Instructions())
	}
}

func (c *Console) regs() {
	for i := 0; i < 16; i += 4 {
		for j := i; j < i+4; j++ {
			name := vax.Reg(j).String()
			v := c.m.R[j]
			if vax.Reg(j) == vax.PC {
				v = c.m.PCVal()
			}
			fmt.Fprintf(c.out, "%-3s %08x   ", name, v)
		}
		fmt.Fprintln(c.out)
	}
	psl := c.m.PSL
	cc := ""
	for _, b := range []struct {
		bit  uint32
		name string
	}{{vax.PSLN, "N"}, {vax.PSLZ, "Z"}, {vax.PSLV, "V"}, {vax.PSLC, "C"}} {
		if psl&b.bit != 0 {
			cc += b.name
		} else {
			cc += "-"
		}
	}
	fmt.Fprintf(c.out, "PSL %08x  cc=%s  mode=%d ipl=%d\n", psl, cc, c.m.CurrentMode(), vax.IPL(psl))
}

func (c *Console) examine(va uint32, n int) {
	for i := 0; i < n; i++ {
		addr := va + uint32(4*i)
		pa, err := c.translate(addr)
		if err != nil {
			fmt.Fprintf(c.out, "%08x: <%v>\n", addr, err)
			return
		}
		fmt.Fprintf(c.out, "%08x: %08x\n", addr, c.m.Mem.PeekLong(pa))
	}
}

// peeker reads page-table entries for the console's walks as an observer,
// so examining memory never samples the RDS injector or latches a fault
// the machine would then take as a machine check.
type peeker struct{ m *mem.Memory }

func (p peeker) ReadLong(pa uint32) uint32 { return p.m.PeekLong(pa) }

func (c *Console) translate(va uint32) (uint32, error) {
	return mmu.Translate(va, &c.m.MMU, peeker{c.m.Mem})
}

func (c *Console) disasm(va uint32, n int) {
	for i := 0; i < n; i++ {
		pa, err := c.translate(va)
		if err != nil {
			fmt.Fprintf(c.out, "%08x: <%v>\n", va, err)
			return
		}
		// Pull enough bytes for one instruction through translation.
		buf := make([]byte, 0, 24)
		for j := uint32(0); j < 24; j++ {
			p, err := c.translate(va + j)
			if err != nil {
				break
			}
			buf = append(buf, c.m.Mem.PeekByte(p))
		}
		_ = pa
		text, size, err := asm.DisasmOne(buf, va, 0)
		if err != nil {
			fmt.Fprintf(c.out, "%08x: .byte %02x ; %v\n", va, buf[0], err)
			return
		}
		fmt.Fprintf(c.out, "%08x: %s\n", va, text)
		va += uint32(size)
	}
}

func (c *Console) hist(n int) {
	if c.mon == nil {
		fmt.Fprintln(c.out, "?no monitor attached")
		return
	}
	h := c.mon.Snapshot()
	r := core.Reduce(h, cpu.CS)
	fmt.Fprintf(c.out, "%d instructions, %d cycles, CPI %.3f\n", r.Instructions, r.Cycles, r.CPI())
	for _, s := range core.HotSpots(h, cpu.CS, n) {
		fmt.Fprintf(c.out, "  %-26s %-10s %8d execs %8d stalls %5.1f%%\n",
			s.Name, s.Row, s.Execs, s.Stalls, 100*s.Share)
	}
}
