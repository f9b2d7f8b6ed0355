package vax

import "testing"

func TestLookupByCodeAndName(t *testing.T) {
	cases := []struct {
		code Opcode
		name string
	}{
		{MOVL, "MOVL"}, {CALLS, "CALLS"}, {RET, "RET"}, {MOVC3, "MOVC3"},
		{ADDP4, "ADDP4"}, {CHMK, "CHMK"}, {EXTZV, "EXTZV"}, {ADDF2, "ADDF2"},
	}
	for _, c := range cases {
		info := Lookup(c.code)
		if info == nil {
			t.Fatalf("Lookup(%#02x) = nil", c.code)
		}
		if info.Name != c.name {
			t.Errorf("Lookup(%#02x).Name = %q, want %q", c.code, info.Name, c.name)
		}
	}
	// The name index must agree with the table on every entry.
	for _, e := range All() {
		if LookupName(e.Name) != Lookup(e.Code) {
			t.Errorf("LookupName(%q) != Lookup(%#02x)", e.Name, e.Code)
		}
	}
	if Lookup(0xFF) != nil {
		t.Error("Lookup(0xFF) should be nil (unimplemented)")
	}
	if LookupName("XYZZY") != nil {
		t.Error("LookupName of unknown mnemonic should be nil")
	}
}

func TestGroupAssignments(t *testing.T) {
	// Spot checks against Table 1's group definitions.
	wantGroup := map[Opcode]Group{
		MOVL:   GroupSimple, // move instructions
		ADDL2:  GroupSimple, // simple arith
		BICL2:  GroupSimple, // boolean
		BEQL:   GroupSimple, // simple branches
		SOBGTR: GroupSimple, // loop branches
		BSBB:   GroupSimple, // subroutine call
		RSB:    GroupSimple, // subroutine return
		EXTV:   GroupField,
		BBS:    GroupField, // bit branches live in FIELD (Table 2 note)
		ADDF2:  GroupFloat,
		MULL2:  GroupFloat, // integer multiply is grouped with FLOAT
		DIVL3:  GroupFloat,
		CALLS:  GroupCallRet,
		RET:    GroupCallRet,
		PUSHR:  GroupCallRet, // multi-register push
		CHMK:   GroupSystem,  // system service request
		SVPCTX: GroupSystem,  // context switch
		INSQUE: GroupSystem,  // queue manipulation
		PROBER: GroupSystem,  // protection probe
		MOVC3:  GroupCharacter,
		ADDP4:  GroupDecimal,
	}
	for code, want := range wantGroup {
		info := Lookup(code)
		if info == nil {
			t.Fatalf("opcode %#02x missing from table", code)
		}
		if info.Group != want {
			t.Errorf("%s group = %v, want %v", info.Name, info.Group, want)
		}
	}
}

func TestEveryGroupPopulated(t *testing.T) {
	seen := make(map[Group]int)
	for _, info := range All() {
		seen[info.Group]++
	}
	for g := Group(0); g < NumGroups; g++ {
		if seen[g] == 0 {
			t.Errorf("group %v has no opcodes", g)
		}
	}
}

func TestEveryPCClassPopulated(t *testing.T) {
	seen := make(map[PCClass]int)
	for _, info := range All() {
		seen[info.PCClass]++
	}
	for c := PCClass(1); c < NumPCClasses; c++ {
		if seen[c] == 0 {
			t.Errorf("PC class %v has no opcodes", c)
		}
	}
}

func TestSpecifierLimits(t *testing.T) {
	for _, info := range All() {
		if len(info.Specs) > 6 {
			t.Errorf("%s has %d specifiers; VAX instructions have 0-6", info.Name, len(info.Specs))
		}
		for i, s := range info.Specs {
			if s.Access == AccessNone || s.Type == TypeNone {
				t.Errorf("%s specifier %d has unset access/type", info.Name, i+1)
			}
		}
	}
}

func TestBranchDispOnlyByteOrWord(t *testing.T) {
	for _, info := range All() {
		switch info.BranchDisp {
		case TypeNone, TypeByte, TypeWord:
		default:
			t.Errorf("%s branch displacement type %v invalid", info.Name, info.BranchDisp)
		}
		if info.PCClass == PCSimpleCond && info.BranchDisp == TypeNone {
			t.Errorf("%s is a simple branch but has no displacement", info.Name)
		}
	}
}

func TestDataTypeSizes(t *testing.T) {
	want := map[DataType]int{
		TypeNone: 0, TypeByte: 1, TypeWord: 2, TypeLong: 4,
		TypeQuad: 8, TypeFloatF: 4, TypeFloatD: 8,
	}
	for dt, sz := range want {
		if got := dt.Size(); got != sz {
			t.Errorf("%v.Size() = %d, want %d", dt, got, sz)
		}
	}
}

func TestIPLHelpers(t *testing.T) {
	psl := WithIPL(0, 24)
	if got := IPL(psl); got != 24 {
		t.Errorf("IPL(WithIPL(0,24)) = %d, want 24", got)
	}
	psl = WithIPL(psl, 0)
	if got := IPL(psl); got != 0 {
		t.Errorf("IPL after clearing = %d, want 0", got)
	}
	if WithIPL(PSLN|PSLZ, 7)&(PSLN|PSLZ) != PSLN|PSLZ {
		t.Error("WithIPL must preserve unrelated PSL bits")
	}
}
