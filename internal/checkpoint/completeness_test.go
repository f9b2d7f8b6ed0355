package checkpoint

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/fault"
	"vax780/internal/vmos"
)

// exempt is the only hand-written record of what a snapshot leaves
// behind: per stateful type, the fields that do not travel and why.
// TestSnapshotCompleteness requires every other field to survive a
// round trip through ExportState and ImportState. A field reached
// through a covered component type (cpu.Machine's ib, Mem, SBI, WB,
// Cache and TLB) is checked against that type's own entry.
var exempt = map[string]map[string]string{
	"cpu.Machine": {
		"cfg":           "travels as Meta.Machine; the resume path rebuilds with cpu.New",
		"xm":            "derived: functional translation memo, valid only under the live MMU registers and Mem's map generation, which ImportState bumps",
		"dm":            "derived: decode memo; every hit compares its bytes with memory, so an entry the imported state makes stale is never used",
		"ops":           "per-instruction decode scratch, rewritten before any use",
		"nops":          "per-instruction decode scratch",
		"instr":         "per-instruction decode scratch",
		"instPC":        "per-instruction decode scratch",
		"halted":        "ExportState refuses halted machines",
		"haltReason":    "ExportState refuses halted machines",
		"runErr":        "ExportState refuses failed machines",
		"probe":         "attachment; the resume path re-attaches the monitor",
		"inExc":         "false at every instruction boundary (snapshots are taken there); ImportState re-clears it",
		"instAborted":   "false at every instruction boundary; ImportState re-clears it",
		"wdLimit":       "supervisor configuration, re-armed by the supervisor on resume",
		"plane":         "attachment; rebuilt from Meta.Fault, stream positions travel as FaultState",
		"csSample":      "attachment derived from the plane",
		"OnInstruction": "attachment; vmos re-installs its scheduler hook on boot",
	},
	"cpu.ibox": {
		"m":       "wiring to the owning machine",
		"scratch": "transient decode buffer; its contents never outlive one peek/consume",
	},
	"mem.Memory": {
		"size":    "construction wiring: New's argument, which the resume path passes again; MemoryState carries it only for ImportState to check",
		"inject":  "attachment derived from the fault plane",
		"watched": "derived: frames translation memos read PTEs from; ImportState clears it",
		"mapGen":  "derived: memos compare it for equality only; ImportState bumps it",
	},
	"mem.SBI": {
		"cfg":    "travels as part of Meta.Machine",
		"inject": "attachment derived from the fault plane",
	},
	"mem.WriteBuffer": {
		"sbi":   "wiring to the rebuilt SBI",
		"depth": "travels as part of Meta.Machine",
	},
	"cache.Cache": {
		"cfg":      "travels as part of Meta.Machine",
		"setShift": "derived from cfg by New",
		"setMask":  "derived from cfg by New",
		"tagShift": "derived from cfg by New",
		"tracer":   "attachment",
		"inject":   "attachment derived from the fault plane",
	},
	"tb.TB": {
		"tracer": "attachment",
		"inject": "attachment derived from the fault plane",
	},
	"vmos.System": {
		"cfg":       "the resume path rebuilds the system from the same Config",
		"m":         "the machine travels as Snapshot.CPU",
		"kern":      "kernel image is laid down deterministically by Boot; its bytes travel in memory",
		"procs":     "process set is regenerated deterministically from the profile",
		"nullPCB":   "assigned deterministically by Boot",
		"nextFrame": "frame allocator is deterministic given the same boot sequence",
		"booted":    "the resume path boots before importing",
		"cur":       "derived: index of lastPCB in charged; ImportState resets it to -1 so the next charge looks it up",
		"diskReq":   "derived by Boot from the kernel image",
	},
	"fault.Plane": {
		"sched":    "rebuilt from Meta.Fault by NewPlane",
		"observer": "attachment",
	},
	"core.Monitor": {},
}

// pinned lists the state fields the perturbation leaves at their exported
// value, keyed type.field: they describe the target's construction
// rather than carry state, and ImportState refuses a value that does not
// match the target.
var pinned = map[string]string{
	"mem.MemoryState.Size": "the array length; ImportState refuses another (TestMemoryStateImport)",
}

// TestSnapshotCompleteness round-trips every stateful type of a
// snapshot. For each it exports a fresh object, moves every leaf of
// that state away from its fresh value, imports the result into another
// fresh object, and requires (a) ExportState to hand the imported state
// back exactly — an ImportState or ExportState that drops a field fails
// here — and (b) every field outside the exemption table to differ from
// a fresh object's: a field neither side touches never leaves its fresh
// value. Silent checkpoint incompleteness is how resumed runs drift.
func TestSnapshotCompleteness(t *testing.T) {
	seen := make(map[string]bool)
	// One nonzero frame makes the exported frame list non-empty, so the
	// perturbation moves a real frame, and an ImportState that does not
	// clear the target lets the fresh machine's own frame survive.
	mcfg := cpu.Config{MemBytes: 64 << 10}
	roundTrip(t, seen, func() *cpu.Machine {
		m := cpu.New(mcfg)
		m.Mem.WriteLong(0x200, 1)
		return m
	}, (*cpu.Machine).ExportState, (*cpu.Machine).ImportState)
	roundTrip(t, seen, func() *vmos.System {
		s := vmos.NewSystem(vmos.Config{IncludeNull: true})
		if err := s.Boot(); err != nil {
			t.Fatalf("vmos boot: %v", err)
		}
		return s
	}, (*vmos.System).ExportState, (*vmos.System).ImportState)
	roundTrip(t, seen, func() *fault.Plane { return fault.NewPlane(fault.Config{Seed: 7}) },
		func(p *fault.Plane) (*fault.State, error) { return p.ExportState(), nil },
		func(p *fault.Plane, st *fault.State) error { p.ImportState(st); return nil })
	roundTrip(t, seen, core.NewMonitor,
		func(mo *core.Monitor) (core.MonitorState, error) { return mo.ExportState(), nil },
		func(mo *core.Monitor, st core.MonitorState) error { mo.ImportState(st); return nil })

	for typ := range exempt {
		if !seen[typ] {
			t.Errorf("exemption table names %s, which no round trip reaches", typ)
		}
	}
	for field := range pinned {
		if !seen[field] {
			t.Errorf("pinned names %s, which no round trip reaches", field)
		}
	}
}

// roundTrip runs TestSnapshotCompleteness's round trip for one type,
// marking in seen every type whose exemption table it consults and every
// pinned field it leaves alone.
func roundTrip[T, S any](t *testing.T, seen map[string]bool, fresh func() *T,
	export func(*T) (S, error), imp func(*T, S) error) {
	t.Helper()
	base := fresh()
	st, err := export(base)
	if err != nil {
		t.Fatalf("ExportState of a fresh %T: %v", base, err)
	}
	perturb(t, seen, reflect.ValueOf(&st).Elem())
	got := fresh()
	if err := imp(got, st); err != nil {
		t.Fatalf("ImportState into a fresh %T: %v", got, err)
	}
	back, err := export(got)
	if err != nil {
		t.Fatalf("ExportState after ImportState: %v", err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Errorf("%T does not survive ExportState(ImportState(st)): %s",
			got, firstDiff(reflect.ValueOf(&st).Elem(), reflect.ValueOf(&back).Elem(), "st"))
	}
	checkFields(t, seen, reflect.ValueOf(base).Elem(), reflect.ValueOf(got).Elem())
}

// checkFields requires every field of got outside the exemption table of
// its type to differ from fresh, descending into fields whose (pointed-
// to) type has a table of its own.
func checkFields(t *testing.T, seen map[string]bool, fresh, got reflect.Value) {
	t.Helper()
	typ := got.Type()
	table, ok := exempt[typ.String()]
	if !ok {
		t.Fatalf("%s has no exemption table", typ)
	}
	seen[typ.String()] = true
	for name := range table {
		if _, ok := typ.FieldByName(name); !ok {
			t.Errorf("exemption table names unknown field %s.%s (renamed or removed?)", typ, name)
		}
	}
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if _, ok := table[name]; ok {
			continue
		}
		f, g := fresh.Field(i), got.Field(i)
		if f.Kind() == reflect.Pointer && !f.IsNil() {
			f, g = f.Elem(), g.Elem()
		}
		if _, ok := exempt[f.Type().String()]; ok {
			checkFields(t, seen, f, g)
			continue
		}
		if reflect.DeepEqual(readable(f), readable(g)) {
			t.Errorf("%s.%s keeps its fresh value through ImportState: the snapshot drops it — extend the State struct or exempt it with a reason", typ, name)
		}
	}
}

// perturb moves every leaf of v away from its current value: integers up
// by one, booleans flipped. An empty slice or map first grows by one zero
// element, so its element type is exercised too. Pinned fields keep their
// value and are marked in seen.
func perturb(t *testing.T, seen map[string]bool, v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			perturb(t, seen, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		if len(keys) == 0 {
			keys = []reflect.Value{reflect.Zero(v.Type().Key())}
		}
		m := reflect.MakeMapWithSize(v.Type(), len(keys))
		for _, k := range keys {
			nk := reflect.New(k.Type()).Elem()
			nk.Set(k)
			perturb(t, seen, nk)
			nv := reflect.New(v.Type().Elem()).Elem()
			if e := v.MapIndex(k); e.IsValid() {
				nv.Set(e)
			}
			perturb(t, seen, nv)
			m.SetMapIndex(nk, nv)
		}
		v.Set(m)
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		}
		perturb(t, seen, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			field := v.Type().String() + "." + v.Type().Field(i).Name
			if _, ok := pinned[field]; ok {
				seen[field] = true
				continue
			}
			if !v.Field(i).CanSet() {
				t.Fatalf("cannot perturb unexported state field %s", field)
			}
			perturb(t, seen, v.Field(i))
		}
	default:
		t.Fatalf("cannot perturb state of kind %s (%s)", v.Kind(), v.Type())
	}
}

// firstDiff names the first leaf at which two values of one type differ.
func firstDiff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := firstDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
				return d
			}
		}
		return ""
	case reflect.Array, reflect.Slice:
		if a.Len() == b.Len() {
			for i := 0; i < a.Len(); i++ {
				if d := firstDiff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); d != "" {
					return d
				}
			}
			return ""
		}
	case reflect.Pointer:
		if !a.IsNil() && !b.IsNil() {
			return firstDiff(a.Elem(), b.Elem(), path)
		}
	}
	if reflect.DeepEqual(readable(a), readable(b)) {
		return ""
	}
	return fmt.Sprintf("%s was imported as %v but exported as %v", path, readable(a), readable(b))
}

// readable returns v as an interface value, reaching through the
// read-only flag reflection puts on unexported fields. v must be
// addressable when it is unexported.
func readable(v reflect.Value) any {
	if v.CanInterface() {
		return v.Interface()
	}
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Interface()
}
