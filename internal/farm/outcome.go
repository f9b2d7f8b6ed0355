package farm

import "fmt"

// Status is an instance's place in the farm lifecycle. Pending and
// Running are transient; the other four are the terminal states a
// ledger reports.
type Status uint8

// Instance statuses.
const (
	// StatusPending: queued, no attempt started yet.
	StatusPending Status = iota
	// StatusRunning: an attempt is in flight on some worker.
	StatusRunning
	// StatusCompleted: finished its full cycle budget on the first
	// attempt, no rescue needed; its histogram is in the merge.
	StatusCompleted
	// StatusRescued: finished its full cycle budget, but only after at
	// least one rescue (its worker died mid-attempt); its histogram is in
	// the merge and is bit-identical to what an undisturbed run would
	// have produced.
	StatusRescued
	// StatusShed: abandoned after a failed attempt, or for want of a
	// live worker; excluded from the merge so failure degrades coverage
	// rather than poisoning results. A resumed farm re-runs it.
	StatusShed
	// StatusPaused: stopped by farm-wide interruption (signal or
	// deadline) with a final checkpoint where one was possible; a
	// resumed farm picks it back up.
	StatusPaused
	// NumStatuses bounds the enum: every status below it has a name
	// (TestStatusNames).
	NumStatuses
)

func (s Status) String() string {
	switch s {
	case StatusPending:
		return "pending"
	case StatusRunning:
		return "running"
	case StatusCompleted:
		return "completed"
	case StatusRescued:
		return "rescued"
	case StatusShed:
		return "shed"
	case StatusPaused:
		return "paused"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Outcome is one ledger row: what happened to one instance.
type Outcome struct {
	ID       int    // instance index
	Profile  string // workload profile name
	Status   Status
	Attempts int    // run attempts started (0 if never dispatched)
	Rescues  int    // attempts lost to worker death and re-run elsewhere
	Cause    string // why it shed or paused ("" for clean completion)
	Cycle    uint64 // machine cycle at the final event (budget if completed, where it stopped if failed)
}

// WorkerPanic is the structured form of a panic recovered inside a
// worker's run attempt: the instance's fault, not the worker's. It
// crosses the farm boundary typed so callers can distinguish "the
// simulation blew up" from scheduling errors with errors.As.
type WorkerPanic struct {
	Worker   int // worker index that recovered the panic
	Instance int // instance whose attempt panicked
	Value    any // the recovered value
}

func (e *WorkerPanic) Error() string {
	return fmt.Sprintf("instance %d panicked on worker %d: %v", e.Instance, e.Worker, e.Value)
}

// RootInUse reports a farm built by New whose Root already holds a
// manifest: an earlier run's state, which only a farm built by Resume
// continues. Run returns it before writing anything, so a fresh run
// never merges or continues the earlier one's instances.
type RootInUse struct{ Root string }

func (e *RootInUse) Error() string {
	return fmt.Sprintf("farm: %s holds an earlier run's %s", e.Root, manifestName)
}

// PoolExhausted reports that every worker died before the work list
// drained; the remaining instances were shed.
type PoolExhausted struct {
	Dead int // workers lost
	Shed int // instances abandoned for want of a worker
}

func (e *PoolExhausted) Error() string {
	return fmt.Sprintf("all %d workers dead; %d instances shed", e.Dead, e.Shed)
}

// Interrupted reports a farm stopped before the work list drained — by
// signal, caller cancellation, or the context's deadline — with every live
// instance checkpointed (where a root directory was configured) so the
// whole farm can be resumed.
type Interrupted struct {
	Cause  error  // context.Canceled or context.DeadlineExceeded
	Root   string // checkpoint root ("" if none was configured)
	Paused int    // instances left resumable
}

func (e *Interrupted) Error() string {
	msg := fmt.Sprintf("farm interrupted: %v; %d instances paused", e.Cause, e.Paused)
	if e.Root != "" {
		msg += "; state under " + e.Root
	}
	return msg
}

func (e *Interrupted) Unwrap() error { return e.Cause }

// killed is the panic value of the worker kill switch. It is deliberately
// not an error: the kill switch models the worker goroutine dying
// (OOM-killed process, segfaulting cgo, pulled plug), so nothing in the
// attempt path may catch and "handle" it short of the worker's own
// recover, which translates it into worker death rather than an
// instance failure.
type killed struct{ worker int }
