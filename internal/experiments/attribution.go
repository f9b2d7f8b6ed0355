// Attribution checked against the machine's own counters (DESIGN.md §12).
// Table 8 charges a cycle to its Read or Write column only when the
// microword makes a D-stream reference (§4–5), and the simulated machine
// counts those references itself, in cache.Stats. So over any stretch of
// cycles the monitor gate covers, the histogram and the counters must
// agree:
//
//   - stall cycles land only on Read- and Write-class words;
//   - the Read-class counts sum to the D-stream cache reads;
//   - the Write-class counts sum to the cache writes, hits plus misses;
//   - the counts of every class but Marker, plus the stall cycles, sum to
//     the cycles the machine spent.
//
// The three reference sites (cacheReadRef, cacheWriteRef and readPhys in
// internal/cpu) stall and then tick the same word, so the ledger also
// holds the order: each stall is followed, before any other probe event,
// by a count of the word that stalled. The identities count events and
// cannot see a tick moved ahead of its stall; the order check does.
//
// The latency sweep asserts them on every step (stepLat), and the profile
// tests on every gated instruction of the five workloads.

package experiments

import (
	"fmt"

	"vax780/internal/cache"
	"vax780/internal/cpu"
	"vax780/internal/ucode"
)

// classLedger tallies a probe's events by class: the histogram side of the
// identities. µPC 0 is reserved, so a zero address means none.
type classLedger struct {
	counts   [ucode.NumClasses]uint64
	stalls   uint64
	badStall ucode.Word // the first word stalled outside Read and Write; zero = none
	pending  uint16     // the last stall's word, until its count arrives
	badOrder [2]uint16  // the first stall followed by another event, and that event's word
}

func (l *classLedger) count(upc uint16, n uint64) {
	if l.pending != 0 {
		l.follow(upc)
	}
	l.counts[cpu.CS.Word(upc).Class] += n
}

func (l *classLedger) stall(upc uint16, n uint64) {
	if l.pending != 0 {
		l.follow(0)
	}
	l.pending = upc
	l.stalls += n
	if w := cpu.CS.Word(upc); w.Class != ucode.ClassRead && w.Class != ucode.ClassWrite && l.badStall.Name == "" {
		l.badStall = w
	}
}

// follow settles the pending stall with the event at upc, 0 for another
// stall: only a count of the stalled word itself keeps the order.
func (l *classLedger) follow(upc uint16) {
	if upc != l.pending && l.badOrder[0] == 0 {
		l.badOrder = [2]uint16{l.pending, upc}
	}
	l.pending = 0
}

// hwCounters is the machine side of the identities: its cycle count and
// its cache's D-stream reference counts.
type hwCounters struct {
	cycles, reads, writes uint64
}

func readCounters(m *cpu.Machine) hwCounters {
	st := m.Cache.Stats()
	return hwCounters{cycles: m.Cycle(), reads: st.Reads(cache.DStream), writes: st.WriteHits + st.WriteMisses}
}

// reconcile checks the identities over the stretch from one counter
// reading to the next, during which the ledger tallied every probe event.
func (l *classLedger) reconcile(from, to hwCounters) error {
	if w := l.badStall; w.Name != "" {
		return fmt.Errorf("stall cycles at %s, a %s-class word", w.Name, w.Class)
	}
	if stalled, next := l.badOrder[0], l.badOrder[1]; stalled != 0 {
		by := "another stall"
		if next != 0 {
			by = "a count of " + cpu.CS.Word(next).Name
		}
		return fmt.Errorf("stall at %s followed by %s before its own count", cpu.CS.Word(stalled).Name, by)
	}
	if l.pending != 0 {
		return fmt.Errorf("stall at %s not followed by its count", cpu.CS.Word(l.pending).Name)
	}
	if got, want := l.counts[ucode.ClassRead], to.reads-from.reads; got != want {
		return fmt.Errorf("read-class words counted %d times for %d D-stream cache reads", got, want)
	}
	if got, want := l.counts[ucode.ClassWrite], to.writes-from.writes; got != want {
		return fmt.Errorf("write-class words counted %d times for %d cache writes", got, want)
	}
	spent := l.stalls
	for c, n := range l.counts {
		if ucode.Class(c) != ucode.ClassMarker {
			spent += n
		}
	}
	if want := to.cycles - from.cycles; spent != want {
		return fmt.Errorf("histogram holds %d cycles (%d stalled) for %d machine cycles", spent, l.stalls, want)
	}
	return nil
}
