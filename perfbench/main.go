// Command perfbench is the repository's benchmark. It runs one of three
// workloads (paper5, character, durable) on the simulated VAX-11/780,
// checks every machine's histogram bit-for-bit, and prints its metrics as
// one JSON object on the last line of standard output.
//
// Usage (from the repository root; run.sh builds and then runs this):
//
//	bash perfbench/run.sh --workload paper5 --seed 0 --seconds 30 --trace 0
//
// With -trace 0 it prints the end-to-end metrics mcps, setup_s and
// peak_rss_mb; the record line before them adds the host, the rounds and
// cpi_err_pct. Set-up is timed in fresh processes, from exec to the start
// of the timed window, so the parent process only orchestrates: it starts
// the set-up-only children and the measuring child one at a time and waits
// for each. With -trace 1 it runs the traced pass in process instead and
// prints the per-layer metrics. README.md documents every metric and
// workload.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childReport is what the measuring child sends back to the parent.
type childReport struct {
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Failures  []string  `json:"failures"`
	Mcps      float64   `json:"mcps"`
	Rounds    []float64 `json:"mcps_rounds"`
	CPIErrPct float64   `json:"cpi_err_pct"`
	Digests   []string  `json:"digests"`
}

// readyLine is the line a child prints when its timed window starts.
const readyLine = "perfbench: window start"

// setupSamples is how many set-up-only children each run times; setup_s
// is the median of their times and the measuring child's.
const setupSamples = 30

type options struct {
	workload string
	seed     int64 // the seed the workload runs at (see seedOffset)
	seedArg  int64 // the -seed argument
	seconds  int
	trace    int
	out      string
	child    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 0, "workload seed, run as a pinned seed (see seedOffset; 0 = the registry seeds vaxrepro uses)")
	flag.IntVar(&o.seconds, "seconds", 30, "minimum host seconds to measure")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for durable state, spans and layer tables")
	flag.StringVar(&o.child, "child", "", "internal: run as a set-up or measuring child")
	pin := flag.Bool("pin", false, "print the pins of every workload at the pinned seeds, as pins.json, and exit")
	flag.Parse()

	if *pin {
		if err := printPins(); err != nil {
			fatal(err)
		}
		return
	}
	if !slices.Contains(workloadNames, o.workload) {
		fatal(fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", ")))
	}
	if o.seed < 0 || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fatal(fmt.Errorf("bad arguments: -seed must be >= 0, -seconds >= 1, -trace 0 or 1"))
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatal(err)
	}
	// Only the parent maps the argument; a child gets the resolved seed.
	if o.child == "" {
		o.seedArg, o.seed = o.seed, seedOffset(o.workload, o.seed)
	}
	var err error
	switch {
	case o.child == "setup":
		err = setupChild(o)
	case o.child == "run":
		err = runChild(o)
	case o.child != "":
		err = fmt.Errorf("unknown -child %q", o.child)
	case o.trace == 1:
		err = traced(o)
	default:
		err = parent(o)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// parent times set-up in fresh children, half of them before the
// measuring child and half after it, so the samples span the run as the
// host's speed drifts; then it prints the end-to-end result.
func parent(o options) error {
	if _, err := pinFor(o.workload, o.seed); err != nil {
		return err
	}
	host := hostRecord()
	var setups []float64
	sample := func(n int) error {
		for i := 0; i < n; i++ {
			s, _, _, err := spawn(o, "setup")
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		return nil
	}
	if err := sample(setupSamples / 2); err != nil {
		return err
	}
	s, rep, rss, err := spawn(o, "run")
	if err != nil {
		return err
	}
	setups = append(setups, s)
	if err := sample(setupSamples - setupSamples/2); err != nil {
		return err
	}
	if rep == nil || len(rep.Rounds) == 0 {
		return errors.New("measuring child reported no rounds")
	}
	res := result{
		Correct:   rep.Failed == 0 && rep.Attempted > 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics: map[string]metric{
			"mcps":        {rep.Mcps, "Mcycle/s"},
			"setup_s":     {median(setups), "s"},
			"peak_rss_mb": {rss, "MB"},
		},
	}
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	record := map[string]any{
		"workload": o.workload, "seed": o.seedArg, "seed_offset": o.seed, "seconds": o.seconds, "host": host,
		"setup_s_samples": setups, "mcps_rounds": rep.Rounds, "digests": rep.Digests,
		"cpi_err_pct": metric{rep.CPIErrPct, "%"},
	}
	return printResult(record, res)
}

// printResult writes the run record line, then the result as the last line.
func printResult(record map[string]any, res result) error {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": record}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// spawn starts one child of this binary and waits for it. It returns the
// seconds from just before exec to the child's window-start line, the
// measuring child's report, and the child's peak RSS in MB.
func spawn(o options, mode string) (setup float64, rep *childReport, rssMB float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, 0, err
	}
	cmd := exec.Command(exe, "-child", mode, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds), "-out", o.out)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, 0, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == readyLine && setup == 0:
			setup = time.Since(start).Seconds()
		case strings.HasPrefix(line, "{"):
			rep = &childReport{}
			if jerr := json.Unmarshal([]byte(line), rep); jerr != nil {
				err = fmt.Errorf("child %s: bad report: %w", mode, jerr)
			}
		}
	}
	// Drain anything left so the child never blocks on a full pipe.
	_, _ = io.Copy(io.Discard, stdout)
	if werr := cmd.Wait(); werr != nil {
		return 0, nil, 0, fmt.Errorf("child %s: %w", mode, werr)
	}
	if err != nil {
		return 0, nil, 0, err
	}
	if setup == 0 {
		return 0, nil, 0, fmt.Errorf("child %s never started its window", mode)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return setup, rep, rssMB, nil
}

// setupChild builds the workload and stops at the start of the window.
func setupChild(o options) error {
	r, err := setUp(o.workload, o.seed, rootFor(o.out, 0), nil)
	if err != nil {
		return err
	}
	fmt.Println(readyLine)
	return r.tearDown()
}

// runChild measures rounds of the workload until -seconds have passed and
// at least minRounds rounds ran, and reports them to the parent.
func runChild(o options) error {
	const minRounds = 3
	var want pin
	var rep childReport
	var cycles uint64
	var elapsed time.Duration
	for i := 0; elapsed < time.Duration(o.seconds)*time.Second || i < minRounds; i++ {
		r, err := setUp(o.workload, o.seed, rootFor(o.out, i), nil)
		if err != nil {
			return err
		}
		if i == 0 {
			fmt.Println(readyLine)
			// The pins are read after set-up is timed and before the window.
			if want, err = pinFor(o.workload, o.seed); err != nil {
				return err
			}
		}
		rd, err := r.run(context.Background(), nil)
		if err != nil {
			return err
		}
		if err := r.tearDown(); err != nil {
			return err
		}
		elapsed += rd.Window
		fails := failures(rd, want)
		rep.Attempted += len(rd.Insts)
		rep.Failed += len(fails)
		rep.Failures = append(rep.Failures, fails...)
		rep.Rounds = append(rep.Rounds, rd.mcps())
		rep.CPIErrPct = cpiErrPct(rd.CPI)
		rep.Digests = pinOf(rd).Digests
		cycles += rd.Cycles
		// Collect the round's machines before the next set-up, so every
		// round starts from the same heap.
		runtime.GC()
	}
	rep.Mcps = float64(cycles) / elapsed.Seconds() / 1e6
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// median returns the middle value (the mean of the two middle values for
// an even count). It does not reorder xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
