package farm

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"vax780/internal/core"
	"vax780/internal/workload"
)

// eventKind classifies what a worker reports back to the coordinator
// about one dispatched attempt.
type eventKind uint8

const (
	// evCompleted: the instance finished its full cycle budget; its
	// histogram is in the worker's local store, its counters ride on the
	// event, and its result is persisted.
	evCompleted eventKind = iota
	// evFailed: the attempt ended in an error or a recovered panic;
	// err carries the typed cause. The instance is shed.
	evFailed
	// evPaused: farm-wide cancellation or deadline stopped the attempt
	// with a final checkpoint; err is the *workload.Interrupted.
	evPaused
	// evDied: the worker's kill switch fired mid-attempt. The worker is
	// gone; the instance needs rescue on a surviving worker.
	evDied
)

// event is one attempt outcome, worker to coordinator.
type event struct {
	kind   eventKind
	worker int
	inst   *instance
	cycles uint64 // machine cycle at the outcome (budget on completion)
	err    error
	// counters are a completed run's hardware counters, which the
	// coordinator sums per profile.
	counters workload.Counters
}

// worker runs dispatched instances to completion, accumulating completed
// histograms in a per-profile local store that the coordinator merges —
// in worker-index order — after the pool drains. Nothing here locks: the
// local store is touched only by this goroutine until the coordinator's
// final merge, which happens after the worker has exited.
type worker struct {
	id       int
	ctx      context.Context
	dispatch <-chan *instance
	events   chan<- event
	wg       *sync.WaitGroup

	every uint64 // checkpoint period (cycles)

	// Kill plumbing: the scripted chaos switch, die after killAfter chunk
	// callbacks, cumulative across instances (0 = never). It is checked
	// at chunk boundaries, the only points where the supervised run loop
	// re-enters farm code.
	killAfter int
	chunks    int

	local []*core.Histogram // per-profile sums of completed instances
}

func newWorker(id int, f *Farm, ctx context.Context, dispatch <-chan *instance,
	events chan<- event, wg *sync.WaitGroup) *worker {
	w := &worker{
		id:       id,
		ctx:      ctx,
		dispatch: dispatch,
		events:   events,
		wg:       wg,
		every:    f.cfg.CheckpointEvery,
		local:    make([]*core.Histogram, len(f.profiles)),
	}
	for i := range w.local {
		w.local[i] = &core.Histogram{}
	}
	for _, k := range f.cfg.Kills {
		if k.Worker == id {
			w.killAfter = k.AfterChunks
		}
	}
	return w
}

// loop pulls instances until the dispatch channel closes or the worker
// dies. A dead worker reports its death (so the coordinator can rescue
// the in-flight instance) and returns without draining the channel.
func (w *worker) loop() {
	defer w.wg.Done()
	// dispatch has exactly one closing owner, Farm.Run, which closes it on
	// every exit path including pause, so the range terminates without
	// needing ctx.
	for inst := range w.dispatch {
		ev, dead := w.attempt(inst)
		// Not guarded by ctx: the coordinator drains events unconditionally
		// until outstanding==0, even while paused; guarding this send with
		// ctx would drop the completion event Run's accounting is waiting
		// for.
		w.events <- ev
		if dead {
			return
		}
	}
}

// attempt runs one instance once, converting every way the attempt can
// end — completion, typed failure, interruption, panic, kill — into one
// event. The recover distinguishes the kill-switch sentinel (worker
// death: the attempt wrote no final checkpoint, exactly like a process
// dying) from an instance panic (recovered into a typed *WorkerPanic and
// reported as a failure). A failure carries the machine cycle where the
// run stopped when the supervisor reports one (*workload.Failed), and
// the last chunk boundary otherwise.
func (w *worker) attempt(inst *instance) (ev event, dead bool) {
	var lastCycle uint64
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if k, ok := r.(killed); ok {
			ev = event{kind: evDied, worker: k.worker, inst: inst, cycles: lastCycle}
			dead = true
			return
		}
		ev = event{kind: evFailed, worker: w.id, inst: inst, cycles: lastCycle,
			err: &WorkerPanic{Worker: w.id, Instance: inst.id, Value: r}}
	}()

	sup := workload.Supervisor{
		CheckpointDir:   inst.dir,
		CheckpointEvery: w.every,
		OnChunk: func(cycle uint64) {
			lastCycle = cycle
			w.chunks++
			if w.killAfter > 0 && w.chunks >= w.killAfter {
				panic(killed{worker: w.id})
			}
		},
	}
	// An instance with a checkpoint generation resumes from it (the
	// rescue path, bit-identical to never having been interrupted).
	res, err := workload.ResumeOrRun(w.ctx, workload.Spec{
		Profile: inst.prof,
		Cycles:  inst.cycles,
		Fault:   inst.fcfg,
	}, sup)
	var intr *workload.Interrupted
	switch {
	case err == nil:
		if perr := persistResult(inst.dir, res); perr != nil {
			return event{kind: evFailed, worker: w.id, inst: inst, cycles: res.Cycles,
				err: fmt.Errorf("instance %d completed but its result did not persist: %w", inst.id, perr)}, false
		}
		w.local[inst.profIdx].Add(res.Hist)
		return event{kind: evCompleted, worker: w.id, inst: inst, cycles: res.Cycles, counters: res.Counters}, false
	case errors.As(err, &intr):
		return event{kind: evPaused, worker: w.id, inst: inst, cycles: intr.Cycle, err: err}, false
	default:
		cycle := lastCycle
		var failed *workload.Failed
		if errors.As(err, &failed) {
			cycle = failed.Cycle
		}
		return event{kind: evFailed, worker: w.id, inst: inst, cycles: cycle,
			err: fmt.Errorf("instance %d: %w", inst.id, err)}, false
	}
}
