package fault

// State is the serialized state of a fault plane, for the checkpoint/
// resume path (internal/checkpoint): the per-point PRNG stream positions
// and the sampling statistics. The schedules are configuration — a
// resumed plane is rebuilt from the same Config and then imports this
// state, after which it produces the exact fault schedule the
// uninterrupted run would have (the deterministic-resume guarantee
// depends on this).
type State struct {
	Streams [NumPoints]uint64
	Stats   Stats
}

// ExportState captures the stream positions and statistics. Returns nil
// for a nil plane (no injection attached).
func (p *Plane) ExportState() *State {
	if p == nil {
		return nil
	}
	return &State{Streams: p.streams, Stats: p.stats}
}

// ImportState restores captured stream positions and statistics. A no-op
// on a nil plane.
func (p *Plane) ImportState(st *State) {
	if p == nil || st == nil {
		return
	}
	p.streams = st.Streams
	p.stats = st.Stats
}
