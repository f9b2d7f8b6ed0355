# Developer entry points. `make check` is the full pre-merge gate: build, gofmt,
# go vet (the static gate), the measured latency oracle, the test suite
# under the race detector (with the cross-table invariants, typed errors
# and enum names checked at run time, DESIGN.md §8 and §11, and the
# determinism and allocation gates, §11 and §13), the chaos soak (fault
# injection into a full OS workload, DESIGN.md "Fault model & machine
# checks"), the farm soak, the crash-consistency proof (kill a
# checkpointed run mid-write, resume, demand bit-identical results;
# DESIGN.md "Checkpoint format & run supervision"), vaxrepro's and
# vaxsim's resume at the command line, and a short fuzz smoke over the
# disassembler, instruction decoder, checkpoint loader and histogram
# loader.

GO ?= go
FUZZTIME ?= 10s

# Every -race target (race, soak, farmsoak, crash-consistency) keeps 4M
# accesses of race history per goroutine (GORACE history_size=7) instead
# of the default 64K: the detector drops a race whose earlier access has
# left the history. At the default a coordinator that read one worker's
# histograms (164K accesses) inside its loop went unreported in 5 of 5
# runs; at history_size=7 it was reported in 5 of 5.
RACEGO = GORACE=history_size=7 $(GO)

.PHONY: check build gofmt vet latency latency-truth test race soak farmsoak crash-consistency repro-resume sim-resume fuzz-smoke bench

# CI's full check (.github/workflows/check.yml) runs each of these
# targets once, as a step of its own; a target added here needs a step
# there.
check: build gofmt vet latency-truth race soak farmsoak crash-consistency repro-resume sim-resume fuzz-smoke

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, when the gofmt of the
# toolchain $(GO) selects would rewrite any (or cannot run or parse one).
gofmt:
	@out="$$("$$($(GO) env GOROOT)/bin/gofmt" -l .)" || exit 1; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Latency table (DESIGN.md §16): measure every registered opcode under
# each directed variant and every addressing mode, and rewrite the
# committed LATENCY.md + latency.json.
latency:
	$(GO) run ./cmd/vaxlat

# Latency oracle gate: measure the table in memory and require both
# committed files byte for byte (a one-cycle change to any measured cell
# fails here, and the table must cover exactly the registered opcodes),
# with the row assertion, the counter identities on every step, the
# concurrent-sweep determinism check, the per-step allocation gate and
# the corruption tests. The attribution tests hold the five profiles'
# histograms to the machine's own counters on every instruction and
# require every defined microword to be counted (DESIGN.md §12).
latency-truth:
	$(GO) test -run 'TestLatency|TestAttribution' ./internal/experiments

test:
	$(GO) test ./...

# soak, farmsoak and crash-consistency run these tests under -race with
# the same flags, so race skips them and `make check` runs each once.
race:
	$(RACEGO) test -race -skip '^(TestChaosSoak|TestFarm.*|TestCheckpointResumeDeterminism|TestCrashConsistencyKillAndResume)$$' ./...

# Chaos soak: millions of cycles of OS workload with every fault-injection
# point firing; nothing worse than a machine check may come out.
soak:
	$(RACEGO) test -run TestChaosSoak -race ./internal/fault

# Farm soak: every farm test under the race detector — workers killed
# mid-sweep with the fault plane firing must leave the merged histograms
# bit-identical to the unperturbed same-seed run, killing every worker
# must shed with causes instead of hanging, and no worker goroutine may
# outlive a run. The farm's concurrency contract rests on these runs
# (DESIGN.md §14); like every -race target it runs at history_size=7
# (RACEGO above).
farmsoak:
	$(RACEGO) test -race -run 'TestFarm' ./internal/farm

# Crash consistency: interrupt a checkpointed run, truncate the newest
# snapshot generation (a simulated crash mid-write), resume, and require
# results bit-identical to an uninterrupted run — under the race detector.
crash-consistency:
	$(RACEGO) test -race -run 'TestCheckpointResumeDeterminism|TestCrashConsistencyKillAndResume' ./internal/workload

# vaxrepro's resume at the command line, in a temporary directory: a
# composite interrupted by -deadline (or finished inside it; either exit
# status is accepted) and resumed prints the tables of an uninterrupted
# one byte for byte, and a run without -resume refuses the root the
# first one used.
repro-resume:
	@d="$$(mktemp -d)" && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/vaxrepro" ./cmd/vaxrepro && cd "$$d" && \
	./vaxrepro -cycles 2000000 > want && \
	{ ./vaxrepro -cycles 2000000 -checkpoint ck -deadline 50ms > /dev/null || true; } && \
	./vaxrepro -resume -checkpoint ck > got && cmp want got && \
	if ./vaxrepro -cycles 2000000 -checkpoint ck > /dev/null; then \
		echo "repro-resume: a run without -resume reused the root of an earlier one"; exit 1; fi

# vaxsim's resume at the command line, in a temporary directory: a run
# interrupted by -deadline (or finished inside it; either exit status is
# accepted) and resumed writes the .upc of an uninterrupted one byte for
# byte, a run without -resume refuses the root the first one used, and
# -resume refuses vaxrepro's root, a farm of five instances.
sim-resume:
	@d="$$(mktemp -d)" && trap 'rm -rf "$$d"' EXIT && \
	$(GO) build -o "$$d/vaxsim" ./cmd/vaxsim && $(GO) build -o "$$d/vaxrepro" ./cmd/vaxrepro && cd "$$d" && \
	./vaxsim -workload timesharing-research -cycles 4000000 -o want.upc && \
	{ ./vaxsim -workload timesharing-research -cycles 4000000 -checkpoint ck -deadline 50ms || true; } && \
	./vaxsim -resume -checkpoint ck -o got.upc && cmp want.upc got.upc && \
	if ./vaxsim -workload timesharing-research -cycles 4000000 -checkpoint ck; then \
		echo "sim-resume: a run without -resume reused the root of an earlier one"; exit 1; fi && \
	./vaxrepro -cycles 200000 -checkpoint repro -summary > /dev/null && \
	if ./vaxsim -resume -checkpoint repro; then \
		echo "sim-resume: vaxsim -resume continued vaxrepro's root"; exit 1; fi

# Short native-fuzz smoke per target; raise FUZZTIME for a real campaign.
# -fuzzminimizetime 1s caps the time go test spends shrinking each new
# interesting input (default 60 s). FuzzCheckpointLoad's inputs are
# 36 KB snapshots: at the default, a 10 s smoke stopped executing inputs
# after 3–6 s (2,687–138,720 execs, then none, in four runs); with 1 s
# it fuzzes for the whole budget (31,457 and 34,098 execs, each input
# decoded twice).
FUZZ = $(GO) test -fuzztime $(FUZZTIME) -fuzzminimizetime 1s

fuzz-smoke:
	$(FUZZ) -fuzz=FuzzDisasmOne ./internal/asm
	$(FUZZ) -fuzz=FuzzDecode$$ ./internal/vax
	$(FUZZ) -fuzz=FuzzDecodeSpecifier ./internal/vax
	$(FUZZ) -fuzz=FuzzCheckpointLoad ./internal/checkpoint
	$(FUZZ) -fuzz=FuzzLoadHistogram ./internal/core

# Regenerate every table and figure of the paper (see bench_test.go),
# then append a fleet-throughput entry (merged cycles/sec across the
# worker pool, with rescue/shed counts and the host's core count and
# GOMAXPROCS; one worker killed mid-sweep so the number covers the
# rescue path) to BENCH_farm.json. The stepping
# rate per profile, with host and spread, is perfbench's
# (perfbench/run.sh).
bench:
	$(GO) test -bench . -benchtime 1x
	$(GO) run ./cmd/vaxbench -chaos "1@3" -out BENCH_farm.json
