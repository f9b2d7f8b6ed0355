package asm

import (
	"fmt"
	"strconv"
	"strings"

	"vax780/internal/vax"
)

// Assemble assembles a text program at the given origin.
//
// Syntax (one statement per line, ';' comments):
//
//	label:  MOVL  #5, R0
//	loop:   SOBGTR R0, loop
//	        MOVL  4(R2)[R3], @#0x1000
//	        JSB   sub              ; PC-relative label reference
//	        CASEL R0, #0, #2, c0, c1, c2
//	        .org   0x200
//	        .byte  1, 2, 3
//	        .long  0xdeadbeef, table
//	        .word  10
//	        .ascii "hello"
//	        .space 16
//	        .align 4
func Assemble(org uint32, src string) (*Image, error) {
	b := NewBuilder(org)
	for ln, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		// Labels (possibly several) at line start.
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 || strings.ContainsAny(line[:i], " \t\"#@(") {
				break
			}
			b.Label(strings.TrimSpace(line[:i]))
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if err := assembleStatement(b, line); err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
	}
	return b.Finish()
}

func assembleStatement(b *Builder, line string) error {
	mnemonic := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	if strings.HasPrefix(mnemonic, ".") {
		return assembleDirective(b, mnemonic, rest)
	}
	mnemonic = strings.ToUpper(mnemonic)
	info := vax.LookupName(mnemonic)
	if info == nil {
		return fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	fields := splitOperands(rest)
	want := len(info.Specs)
	if info.BranchDisp != vax.TypeNone {
		want++
	}
	if info.PCClass == vax.PCCase {
		if len(fields) < want {
			return fmt.Errorf("%s wants at least %d operands, got %d", mnemonic, want, len(fields))
		}
	} else if len(fields) != want {
		return fmt.Errorf("%s wants %d operands, got %d", mnemonic, want, len(fields))
	}
	args := make([]Arg, len(info.Specs))
	for i := range info.Specs {
		a, err := parseOperand(fields[i], info.Specs[i])
		if err != nil {
			return fmt.Errorf("%s operand %d: %w", mnemonic, i+1, err)
		}
		args[i] = a
	}
	switch {
	case info.PCClass == vax.PCCase:
		b.Case(mnemonic, args[0], args[1], args[2], fields[len(info.Specs):]...)
	case info.BranchDisp != vax.TypeNone:
		b.Br(mnemonic, fields[len(fields)-1], args...)
	default:
		b.Op(mnemonic, args...)
	}
	return nil
}

func assembleDirective(b *Builder, name, rest string) error {
	fields := splitOperands(rest)
	switch strings.ToLower(name) {
	case ".byte":
		for _, f := range fields {
			v, err := parseInt(f)
			if err != nil {
				return err
			}
			b.Byte(byte(v))
		}
	case ".word":
		for _, f := range fields {
			v, err := parseInt(f)
			if err != nil {
				return err
			}
			b.Word(uint16(v))
		}
	case ".long":
		for _, f := range fields {
			if v, err := parseInt(f); err == nil {
				b.Long(uint32(v))
			} else if name, off, ok := splitSymExpr(f); ok {
				b.LongLabelOff(name, off)
			} else {
				return err
			}
		}
	case ".quad":
		for _, f := range fields {
			v, err := parseInt(f)
			if err != nil {
				return err
			}
			b.Quad(uint64(v))
		}
	case ".ascii":
		s, err := strconv.Unquote(rest)
		if err != nil {
			return fmt.Errorf(".ascii %s: %w", rest, err)
		}
		b.Byte([]byte(s)...)
	case ".space":
		v, err := parseInt(rest)
		if err != nil {
			return err
		}
		if v < 0 {
			return fmt.Errorf(".space %d: negative length", v)
		}
		b.Space(int(v))
	case ".align":
		v, err := parseInt(rest)
		if err != nil {
			return err
		}
		if v <= 0 || v > 1<<31 || v&(v-1) != 0 {
			return fmt.Errorf(".align %d: not a power of two from 1 to 0x80000000", v)
		}
		b.Align(int(v))
	case ".org":
		v, err := parseInt(rest)
		if err != nil {
			return err
		}
		if err := b.Org(uint32(v)); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown directive %q", name)
	}
	return nil
}

// splitOperands splits on commas not inside quotes, parens or brackets.
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// parseOperand parses one operand in MACRO-like syntax.
func parseOperand(f string, spec vax.OperandSpec) (Arg, error) {
	orig := f
	// Index suffix: base[Rx]
	var index vax.Reg
	indexed := false
	if strings.HasSuffix(f, "]") {
		i := strings.LastIndexByte(f, '[')
		if i < 0 {
			return Arg{}, fmt.Errorf("bad index in %q", orig)
		}
		r, ok := parseReg(f[i+1 : len(f)-1])
		if !ok {
			return Arg{}, fmt.Errorf("bad index register in %q", orig)
		}
		index, indexed = r, true
		f = f[:i]
	}
	wrap := func(a Arg) (Arg, error) {
		if indexed {
			if a.kind != argSpec {
				return Arg{}, fmt.Errorf("label operand cannot be indexed: %q", orig)
			}
			a = Idx(a, index)
		}
		return a, nil
	}

	switch {
	case strings.HasPrefix(f, "S^#"):
		v, err := parseInt(f[3:])
		if err != nil {
			return Arg{}, err
		}
		return wrap(Lit(int32(v)))
	case strings.HasPrefix(f, "I^#"):
		v, err := parseInt(f[3:])
		if err != nil {
			return Arg{}, err
		}
		return wrap(Imm(uint64(v)))
	case strings.HasPrefix(f, "#"):
		v, err := parseInt(f[1:])
		if err != nil {
			return Arg{}, err
		}
		// Prefer the short literal where architecturally allowed.
		if v >= 0 && v <= 63 && spec.Access == vax.AccessRead {
			return wrap(Lit(int32(v)))
		}
		return wrap(Imm(uint64(v)))
	case strings.HasPrefix(f, "@#"):
		if v, err := parseInt(f[2:]); err == nil {
			return wrap(Abs(uint32(v)))
		}
		if name, off, ok := splitSymExpr(f[2:]); ok {
			return wrap(LblAbsOff(name, off))
		}
		return Arg{}, fmt.Errorf("bad absolute operand %q", orig)
	case strings.HasPrefix(f, "-(") && strings.HasSuffix(f, ")"):
		r, ok := parseReg(f[2 : len(f)-1])
		if !ok {
			return Arg{}, fmt.Errorf("bad register in %q", orig)
		}
		return wrap(Dec(r))
	case strings.HasPrefix(f, "@(") && strings.HasSuffix(f, ")+"):
		r, ok := parseReg(f[2 : len(f)-2])
		if !ok {
			return Arg{}, fmt.Errorf("bad register in %q", orig)
		}
		return wrap(IncDef(r))
	case strings.HasPrefix(f, "(") && strings.HasSuffix(f, ")+"):
		r, ok := parseReg(f[1 : len(f)-2])
		if !ok {
			return Arg{}, fmt.Errorf("bad register in %q", orig)
		}
		return wrap(Inc(r))
	case strings.HasPrefix(f, "(") && strings.HasSuffix(f, ")"):
		r, ok := parseReg(f[1 : len(f)-1])
		if !ok {
			return Arg{}, fmt.Errorf("bad register in %q", orig)
		}
		return wrap(Def(r))
	}
	if r, ok := parseReg(f); ok {
		return wrap(R(r))
	}
	// Displacement forms: [@][B^|W^|L^]disp(Rn)
	if strings.HasSuffix(f, ")") {
		deferred := false
		g := f
		if strings.HasPrefix(g, "@") {
			deferred = true
			g = g[1:]
		}
		i := strings.LastIndexByte(g, '(')
		if i < 0 {
			return Arg{}, fmt.Errorf("bad operand %q", orig)
		}
		r, ok := parseReg(g[i+1 : len(g)-1])
		if !ok {
			return Arg{}, fmt.Errorf("bad register in %q", orig)
		}
		dstr := g[:i]
		force := vax.TypeNone
		switch {
		case strings.HasPrefix(dstr, "B^"):
			force, dstr = vax.TypeByte, dstr[2:]
		case strings.HasPrefix(dstr, "W^"):
			force, dstr = vax.TypeWord, dstr[2:]
		case strings.HasPrefix(dstr, "L^"):
			force, dstr = vax.TypeLong, dstr[2:]
		}
		d, err := parseInt(dstr)
		if err != nil {
			return Arg{}, fmt.Errorf("bad displacement in %q: %w", orig, err)
		}
		var a Arg
		if deferred {
			a = DDef(int32(d), r)
		} else {
			a = D(int32(d), r)
		}
		// Honor a forced displacement width.
		switch force {
		case vax.TypeByte:
			a.spec.Mode = pick(deferred, vax.ModeByteDispDef, vax.ModeByteDisp)
		case vax.TypeWord:
			a.spec.Mode = pick(deferred, vax.ModeWordDispDef, vax.ModeWordDisp)
		case vax.TypeLong:
			a.spec.Mode = pick(deferred, vax.ModeLongDispDef, vax.ModeLongDisp)
		}
		return wrap(a)
	}
	if name, off, ok := splitSymExpr(f); ok {
		// Bare label (optionally label+const): PC-relative reference.
		return wrap(LblAddrOff(name, off))
	}
	return Arg{}, fmt.Errorf("cannot parse operand %q", orig)
}

func pick(c bool, t, f vax.AddrMode) vax.AddrMode {
	if c {
		return t
	}
	return f
}

func parseReg(s string) (vax.Reg, bool) {
	switch strings.ToUpper(strings.TrimSpace(s)) {
	case "AP":
		return vax.AP, true
	case "FP":
		return vax.FP, true
	case "SP":
		return vax.SP, true
	case "PC":
		return vax.PC, true
	}
	s = strings.TrimSpace(s)
	if len(s) >= 2 && (s[0] == 'R' || s[0] == 'r') {
		n, err := strconv.Atoi(s[1:])
		if err == nil && n >= 0 && n <= 15 {
			return vax.Reg(n), true
		}
	}
	return 0, false
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	switch {
	case strings.HasPrefix(s, "-"):
		neg = true
		s = s[1:]
	case strings.HasPrefix(s, "+"):
		s = s[1:]
	}
	var v uint64
	var err error
	switch {
	case strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X"):
		v, err = strconv.ParseUint(s[2:], 16, 64)
	case strings.HasPrefix(s, "^X") || strings.HasPrefix(s, "^x"):
		v, err = strconv.ParseUint(s[2:], 16, 64)
	default:
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	if neg {
		return -int64(v), nil
	}
	return int64(v), nil
}

// splitSymExpr parses "label", "label+const" or "label-const".
func splitSymExpr(s string) (name string, off int32, ok bool) {
	cut := -1
	for i := 1; i < len(s); i++ {
		if s[i] == '+' || s[i] == '-' {
			cut = i
			break
		}
	}
	if cut < 0 {
		if isIdent(s) {
			return s, 0, true
		}
		return "", 0, false
	}
	name = s[:cut]
	if !isIdent(name) {
		return "", 0, false
	}
	v, err := parseInt(s[cut:])
	if err != nil {
		return "", 0, false
	}
	return name, int32(v), true
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '.':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
