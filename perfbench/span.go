package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a module.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Run    string `json:"run"`    // which pass of the workload the span belongs to
	Name   string `json:"name"`   // module.Function
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spans records spans in memory; they are written out once, at exit.
type spans struct {
	base time.Time
	all  []span
}

func newSpans() *spans { return &spans{base: time.Now()} }

// begin opens a span under parent and returns its id.
func (t *spans) begin(parent int, run, name string) int {
	t.all = append(t.all, span{ID: len(t.all) + 1, Parent: parent, Run: run, Name: name,
		Start: time.Since(t.base).Nanoseconds()})
	return len(t.all)
}

// end closes span id and returns its duration.
func (t *spans) end(id int) time.Duration {
	s := &t.all[id-1]
	s.End = time.Since(t.base).Nanoseconds()
	return s.dur()
}

// do runs f inside a span and returns its duration.
func (t *spans) do(parent int, run, name string, f func()) time.Duration {
	id := t.begin(parent, run, name)
	f()
	return t.end(id)
}

// write saves every span as JSON.
func (t *spans) write(path string) error {
	b, err := json.Marshal(t.all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that the union of its children's intervals covers.
func selfTimes(all []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range all {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(all))
	for _, s := range all {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) time.Duration {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// tailLadder is the percentiles a tail is reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.5, 99.9, 99.95, 99.99}

// tail returns the highest percentile of the ladder that has at least ten
// samples beyond it, with its value (nearest rank). With fewer than twenty
// samples not even the median qualifies, and ok is false.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if rank < 1 || n-rank < 10 {
			break
		}
		pct, value, ok = p, s[rank-1], true
	}
	return pct, value, ok
}
