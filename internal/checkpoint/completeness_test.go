package checkpoint

import (
	"reflect"
	"testing"

	"vax780/internal/cache"
	"vax780/internal/core"
	"vax780/internal/cpu"
	"vax780/internal/fault"
	"vax780/internal/mem"
	"vax780/internal/tb"
	"vax780/internal/vmos"
)

// TestSnapshotCompleteness walks every stateful struct the snapshot
// claims to capture and requires each field to be either (a) named in the
// captured table — it travels in the snapshot — or (b) named in the
// exemption table with a reason it need not travel (rebuilt
// deterministically, re-attached wiring, per-instruction scratch, or
// refused by ExportState). A field added to any of these structs without
// a decision here fails the build's tests: silent checkpoint
// incompleteness is how resumed runs drift. Both tables are also checked
// against the real field set, so a renamed or deleted field cannot leave
// a stale entry behind.
//
// The unexported cpu ibox is covered by the equivalent test inside
// package cpu (it is unreachable by reflection from here).
func TestSnapshotCompleteness(t *testing.T) {
	cases := []struct {
		name     string
		typ      reflect.Type
		captured map[string]string // field -> where it lands in the snapshot
		exempt   map[string]string // field -> why it need not travel
	}{
		{
			name: "cpu.Machine",
			typ:  reflect.TypeOf(cpu.Machine{}),
			captured: map[string]string{
				"R":             "State.R",
				"PSL":           "State.PSL",
				"ipr":           "State.IPR",
				"MMU":           "State.MMU",
				"Mem":           "State.Mem",
				"SBI":           "State.SBI",
				"WB":            "State.WB",
				"Cache":         "State.Cache",
				"TLB":           "State.TB",
				"ib":            "State.IB",
				"cycle":         "State.Cycle",
				"instret":       "State.Instret",
				"upc":           "State.UPC",
				"gate":          "State.Gate",
				"irqs":          "State.IRQs",
				"nextIRQ":       "State.NextIRQ",
				"lastPCChange":  "State.LastPCChange",
				"patchCtr":      "State.PatchCtr",
				"wdLastRetire":  "State.WDLastRetire",
				"mcPending":     "State.MCPending",
				"mcActive":      "State.MCActive",
				"pendMC":        "State.MCCause + State.MCInfo",
				"unaligned":     "State.HW",
				"sirrRequests":  "State.HW",
				"irqDelivered":  "State.HW",
				"exceptions":    "State.HW",
				"ctxSwitches":   "State.HW",
				"machineChecks": "State.HW",
				"mcLost":        "State.HW",
				"mcByCause":     "State.HW",
			},
			exempt: map[string]string{
				"cfg":           "travels as Meta.Machine; the resume path rebuilds with cpu.New",
				"ops":           "per-instruction decode scratch, rewritten before any use",
				"nops":          "per-instruction decode scratch",
				"instr":         "per-instruction decode scratch",
				"instPC":        "per-instruction decode scratch",
				"instAborted":   "false at every instruction boundary (snapshots are taken there)",
				"inExc":         "false at every instruction boundary",
				"halted":        "ExportState refuses halted machines",
				"haltReason":    "ExportState refuses halted machines",
				"runErr":        "ExportState refuses failed machines",
				"probe":         "attachment; the resume path re-attaches the monitor",
				"plane":         "attachment; rebuilt from Meta.Fault, stream positions travel as FaultState",
				"csSample":      "attachment derived from the plane",
				"wdLimit":       "supervisor configuration, re-armed by the supervisor on resume",
				"OnInstruction": "attachment; vmos re-installs its scheduler hook on boot",
				"xm":            "derived: functional translation memo, valid only under the live MMU registers and Mem's map generation, which ImportState bumps",
			},
		},
		{
			name: "vmos.System",
			typ:  reflect.TypeOf(vmos.System{}),
			captured: map[string]string{
				"nextClock":  "State.NextClock",
				"termEvents": "State.TermEvents",
				"termNext":   "State.TermNext",
				"diskSeen":   "State.DiskSeen",
				"diskDue":    "State.DiskDue",
				"lastCycle":  "State.LastCycle",
				"lastPCB":    "State.LastPCB",
				"charged":    "State.CPUTime keys",
				"cpuTime":    "State.CPUTime values",
			},
			exempt: map[string]string{
				"cfg":       "the resume path rebuilds the system from the same Config",
				"m":         "the machine travels as Snapshot.CPU",
				"kern":      "kernel image is laid down deterministically by Boot; bytes travel in memory",
				"procs":     "process set is regenerated deterministically from the profile",
				"nullPCB":   "assigned deterministically by Boot",
				"nextFrame": "frame allocator is deterministic given the same boot sequence",
				"booted":    "the resume path boots before importing",
				"cur":       "derived: index of lastPCB in charged; ImportState resets it to -1 so the next charge looks it up",
				"diskReq":   "derived by Boot from the kernel image",
			},
		},
		{
			name: "cache.Cache",
			typ:  reflect.TypeOf(cache.Cache{}),
			captured: map[string]string{
				"sets":      "State.Lines",
				"stamp":     "State.Stamp",
				"stats":     "State.Stats",
				"faultAddr": "State.FaultAddr",
				"hasFault":  "State.HasFault",
			},
			exempt: map[string]string{
				"cfg":      "travels as part of Meta.Machine",
				"setShift": "derived from cfg by New",
				"setMask":  "derived from cfg by New",
				"tagShift": "derived from cfg by New",
				"tracer":   "attachment",
				"inject":   "attachment derived from the fault plane",
			},
		},
		{
			name: "tb.TB",
			typ:  reflect.TypeOf(tb.TB{}),
			captured: map[string]string{
				"halves":   "State.Halves",
				"stats":    "State.Stats",
				"faultVA":  "State.FaultVA",
				"hasFault": "State.HasFault",
			},
			exempt: map[string]string{
				"tracer": "attachment",
				"inject": "attachment derived from the fault plane",
			},
		},
		{
			name: "mem.Memory",
			typ:  reflect.TypeOf(mem.Memory{}),
			captured: map[string]string{
				"data":     "MemoryState.Data",
				"fault":    "MemoryState.Fault",
				"hasFault": "MemoryState.HasFault",
			},
			exempt: map[string]string{
				"inject":  "attachment derived from the fault plane",
				"watched": "derived: frames translation memos read PTEs from; ImportState clears it",
				"mapGen":  "derived: memos compare it for equality only; ImportState bumps it",
			},
		},
		{
			name: "mem.SBI",
			typ:  reflect.TypeOf(mem.SBI{}),
			captured: map[string]string{
				"busyUntil":  "SBIState.BusyUntil",
				"stats":      "SBIState.Stats",
				"faultCycle": "SBIState.FaultCycle",
				"hasFault":   "SBIState.HasFault",
			},
			exempt: map[string]string{
				"cfg":    "travels as part of Meta.Machine",
				"inject": "attachment derived from the fault plane",
			},
		},
		{
			name: "mem.WriteBuffer",
			typ:  reflect.TypeOf(mem.WriteBuffer{}),
			captured: map[string]string{
				"drains": "WriteBufferState.Drains",
				"stats":  "WriteBufferState.Stats",
			},
			exempt: map[string]string{
				"sbi":   "wiring to the rebuilt SBI",
				"depth": "travels as part of Meta.Machine",
			},
		},
		{
			name: "fault.Plane",
			typ:  reflect.TypeOf(fault.Plane{}),
			captured: map[string]string{
				"streams": "fault.State.Streams",
				"stats":   "fault.State.Stats",
			},
			exempt: map[string]string{
				"sched":    "rebuilt from Meta.Fault by NewPlane",
				"observer": "attachment",
			},
		},
		{
			name: "core.Monitor",
			typ:  reflect.TypeOf(core.Monitor{}),
			captured: map[string]string{
				"hist":      "MonitorState.Hist",
				"running":   "MonitorState.Running",
				"overflow":  "MonitorState.Overflow",
				"maxBucket": "MonitorState.MaxBucket",
			},
			exempt: map[string]string{},
		},
	}

	for _, c := range cases {
		fields := make(map[string]bool, c.typ.NumField())
		for i := 0; i < c.typ.NumField(); i++ {
			fields[c.typ.Field(i).Name] = true
		}
		for name := range c.captured {
			if !fields[name] {
				t.Errorf("%s: captured table names unknown field %q (renamed or removed?)", c.name, name)
			}
			if _, both := c.exempt[name]; both {
				t.Errorf("%s: field %q is both captured and exempted", c.name, name)
			}
		}
		for name := range c.exempt {
			if !fields[name] {
				t.Errorf("%s: exemption table names unknown field %q (renamed or removed?)", c.name, name)
			}
		}
		for name := range fields {
			if c.captured[name] == "" && c.exempt[name] == "" {
				t.Errorf("%s: field %q is neither captured by the snapshot nor exempted — extend the State struct or add a justified exemption", c.name, name)
			}
		}
	}
}
