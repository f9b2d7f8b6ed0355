# Developer entry points. `make check` is the full pre-merge gate: build, gofmt,
# go vet, the repo's own vaxlint static analyzers (cross-table invariant,
# determinism and hot-path contracts, see DESIGN.md
# "Static analysis & invariants"), the test suite
# under the race detector, the chaos soak (fault injection into a full OS
# workload, DESIGN.md "Fault model & machine checks"), the crash-
# consistency proof (kill a checkpointed run mid-write, resume, demand
# bit-identical results; DESIGN.md "Checkpoint format & run supervision"),
# and a short fuzz smoke over the disassembler, instruction decoder, and
# checkpoint loader.

GO ?= go
FUZZTIME ?= 10s

# Every -race target (race, soak, farmsoak, crash-consistency) keeps 4M
# accesses of race history per goroutine (GORACE history_size=7) instead
# of the default 64K: the detector drops a race whose earlier access has
# left the history. At the default a coordinator that read one worker's
# histograms (164K accesses) inside its loop went unreported in 5 of 5
# runs; at history_size=7 it was reported in 5 of 5.
RACEGO = GORACE=history_size=7 $(GO)

.PHONY: check build gofmt vet lint vaxlint sarif escape-truth latency latency-truth test race soak farmsoak crash-consistency fuzz-smoke bench lint-bench

check: build gofmt vet vaxlint escape-truth latency-truth race soak farmsoak crash-consistency fuzz-smoke

build:
	$(GO) build ./...

# Formatting gate: fails, listing the files, when the gofmt of the
# toolchain $(GO) selects would rewrite any (or cannot run or parse one).
gofmt:
	@out="$$("$$($(GO) env GOROOT)/bin/gofmt" -l .)" || exit 1; if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# All seven analyzers, human-readable; vet is its own target above.
vaxlint:
	$(GO) run ./cmd/vaxlint -vet=false ./...

# Same run as a SARIF 2.1.0 log on stdout — for CI code-scanning upload.
sarif:
	$(GO) run ./cmd/vaxlint -vet=false -sarif ./...

# Same run, one JSON object per finding on stdout — for editors and CI
# annotators.
lint:
	$(GO) run ./cmd/vaxlint -vet=false -json ./...

# Escape ground truth: diff the hotpath analyzer's composite-literal
# escape verdicts against `go build -gcflags=-m` over the real hot set;
# drift in either direction — a stack claim the compiler refutes, or an
# unpinned over-approximation — fails the gate (see
# internal/analysis/escape_truth_test.go).
escape-truth:
	$(GO) test -run TestEscapeGroundTruth ./internal/analysis

# Latency table (DESIGN.md §16): measure every registered opcode under
# each directed variant and every addressing mode, and rewrite the
# committed LATENCY.md + latency.json.
latency:
	$(GO) run ./cmd/vaxlat

# Latency oracle gate: measure the table in memory and require both
# committed files byte for byte (a one-cycle change to any measured cell
# fails here), with the row assertion, the counter identities on every
# step, the concurrent-sweep determinism check and the corruption tests;
# then confront the analysis suite's static registration scan and
# exec-file rows with the committed table. The attribution tests hold
# the five profiles' histograms to the machine's own counters on every
# instruction and require every defined microword to be counted
# (DESIGN.md §12).
latency-truth:
	$(GO) test -run 'TestLatency|TestAttribution' ./internal/experiments ./internal/analysis

test:
	$(GO) test ./...

race:
	$(RACEGO) test -race ./...

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

# Short native-fuzz smoke per target; raise FUZZTIME for a real campaign.
fuzz-smoke:
	$(GO) test -fuzz=FuzzDisasmOne -fuzztime $(FUZZTIME) ./internal/asm
	$(GO) test -fuzz=FuzzDecode$$ -fuzztime $(FUZZTIME) ./internal/vax
	$(GO) test -fuzz=FuzzDecodeSpecifier -fuzztime $(FUZZTIME) ./internal/vax
	$(GO) test -fuzz=FuzzCheckpointLoad -fuzztime $(FUZZTIME) ./internal/checkpoint

# Regenerate every table and figure of the paper (see bench_test.go),
# then append a stepping-cost entry — cycles/sec, ns/cycle, allocs/cycle
# per workload profile — to the committed BENCH_step.json ledger, and a
# fleet-throughput entry (merged cycles/sec across the worker pool, with
# rescue/shed counts; one worker killed mid-sweep so the number covers
# the rescue path) to BENCH_farm.json.
bench:
	$(GO) test -bench . -benchtime 1x
	$(GO) run ./cmd/vaxbench -out BENCH_step.json
	$(GO) run ./cmd/vaxbench -farm -chaos "1@3" -out BENCH_farm.json

# Analyzer-suite cost: one module load, then each of the seven
# vaxlint analyzers timed over the whole tree with its findings count,
# appended to the committed BENCH_lint.json ledger — the suite is big
# enough that its own cost needs a trajectory.
lint-bench:
	$(GO) run ./cmd/vaxbench -lint -out BENCH_lint.json
