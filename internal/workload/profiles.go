package workload

import "math/rand"

// Profile describes one of the paper's five measurement workloads,
// scaled down: the paper's machines carried 15-40 users for about an hour;
// this model runs a handful of processes for tens of millions of cycles.
// The user count survives as the terminal-interrupt pacing.
type Profile struct {
	Name  string
	Kind  string // "live timesharing" or "RTE"
	Users int    // nominal simulated users (drives terminal-event rate)
	Procs int    // concurrent processes in the run rotation
	Mix   Mix
	// TermInterval is the average cycle gap between terminal interrupts.
	TermInterval uint64
	// Blocks sizes the generated programs (code footprint).
	Blocks int
	// SyscallWeight already inside Mix; LoopIter/StringLen tune loops.
	LoopIter  int
	StringLen int
	Seed      int64
	// Script is the canned terminal input the RTE "types".
	Script string
}

// The five workloads of §2.2. Mix weights are calibrated so the composite
// instruction mix lands near Table 1 (see internal/experiments and
// EXPERIMENTS.md for the measured result).
var (
	// TimesharingResearch is the lightly-loaded research-group machine:
	// text editing, program development, electronic mail (~15 users).
	TimesharingResearch = Profile{
		Name: "timesharing-research", Kind: "live timesharing",
		Users: 15, Procs: 4,
		Mix: Mix{
			ALU: 0.20, MemScan: 0.16, Branchy: 0.37, Call: 0.045, Subr: 0.055,
			Field: 0.21, Float: 0.013, String: 0.004, Decimal: 0.0002,
			Queue: 0.007, Syscall: 0.012,
		},
		TermInterval: 9_000, Blocks: 105, LoopIter: 10, StringLen: 40, Seed: 101,
		Script: "edit main.pas\nfind procedure\nsubstitute/old/new\nmail\n",
	}

	// TimesharingCPUDev is the heavier VAX-CPU-development machine:
	// general timesharing plus circuit simulation and microcode
	// development (~30 users).
	TimesharingCPUDev = Profile{
		Name: "timesharing-cpudev", Kind: "live timesharing",
		Users: 30, Procs: 5,
		Mix: Mix{
			ALU: 0.19, MemScan: 0.16, Branchy: 0.35, Call: 0.04, Subr: 0.05,
			Field: 0.22, Float: 0.070, String: 0.003, Decimal: 0.0002,
			Queue: 0.007, Syscall: 0.010,
		},
		TermInterval: 6_000, Blocks: 119, LoopIter: 10, StringLen: 36, Seed: 202,
		Script: "spice cpu.ckt\nmicroasm ebox.mic\ndiff listing.old\n",
	}

	// RTEEducational: 40 simulated users doing program development in
	// various languages and file manipulation.
	RTEEducational = Profile{
		Name: "rte-educational", Kind: "RTE",
		Users: 40, Procs: 5,
		Mix: Mix{
			ALU: 0.19, MemScan: 0.15, Branchy: 0.37, Call: 0.05, Subr: 0.055,
			Field: 0.21, Float: 0.018, String: 0.005, Decimal: 0.0004,
			Queue: 0.007, Syscall: 0.014,
		},
		TermInterval: 5_000, Blocks: 112, LoopIter: 9, StringLen: 44, Seed: 303,
		Script: "pascal prog1.pas\nrun prog1\ncopy a.dat b.dat\n",
	}

	// RTEScientific: 40 simulated users doing scientific computation and
	// program development.
	RTEScientific = Profile{
		Name: "rte-scientific", Kind: "RTE",
		Users: 40, Procs: 5,
		Mix: Mix{
			ALU: 0.20, MemScan: 0.17, Branchy: 0.34, Call: 0.04, Subr: 0.05,
			Field: 0.16, Float: 0.150, String: 0.002, Decimal: 0.0002,
			Queue: 0.006, Syscall: 0.010,
		},
		TermInterval: 6_500, Blocks: 126, LoopIter: 12, StringLen: 36, Seed: 404,
		Script: "fortran sim.for\nrun sim\nplot results.dat\n",
	}

	// RTECommercial: 32 simulated users doing transactional database
	// inquiries and updates.
	RTECommercial = Profile{
		Name: "rte-commercial", Kind: "RTE",
		Users: 32, Procs: 5,
		Mix: Mix{
			ALU: 0.20, MemScan: 0.14, Branchy: 0.36, Call: 0.05, Subr: 0.045,
			Field: 0.18, Float: 0.008, String: 0.009, Decimal: 0.0012,
			Queue: 0.012, Syscall: 0.018,
		},
		TermInterval: 4_500, Blocks: 98, LoopIter: 8, StringLen: 44, Seed: 505,
		Script: "inquire account 40113\nupdate balance 129.50\ncommit\n",
	}
)

// All returns the five workloads in the paper's order.
func All() []Profile {
	return []Profile{
		TimesharingResearch,
		TimesharingCPUDev,
		RTEEducational,
		RTEScientific,
		RTECommercial,
	}
}

// ByName finds a profile.
func ByName(name string) (Profile, bool) {
	for _, p := range All() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// program is the generator configuration of the profile's i-th process.
func (p Profile) program(i int) GenConfig {
	return GenConfig{
		Mix:       p.Mix,
		Blocks:    p.Blocks,
		LoopIter:  p.LoopIter,
		StringLen: p.StringLen,
		Seed:      p.Seed + int64(i)*1000,
	}
}

// TerminalSchedule builds the RTE's terminal-interrupt schedule over a run
// of the given length: Poisson-ish arrivals averaging one per
// TermInterval cycles, jittered deterministically by the profile seed.
func (p Profile) TerminalSchedule(cycles uint64) []uint64 {
	r := rand.New(rand.NewSource(p.Seed * 7919))
	var events []uint64
	t := uint64(0)
	for {
		gap := uint64(float64(p.TermInterval) * (0.25 + 1.5*r.Float64()))
		if gap == 0 {
			gap = 1
		}
		t += gap
		if t >= cycles {
			return events
		}
		events = append(events, t)
	}
}
