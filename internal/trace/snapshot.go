package trace

import "firefly/internal/mbus"

// Snapshot support for the deterministic generators: each source exposes
// its mutable position as an opaque deep copy so machine snapshot/restore
// can resume the exact reference stream. The configurations themselves
// (SyntheticConfig, WorkingSetConfig, pool layouts) are not part of the
// state — a restored source must be built from the same configuration.

type syntheticState struct {
	rng    uint64
	cursor uint32
	seq    uint32
}

// SourceState implements Stateful.
func (g *Synthetic) SourceState() any {
	return syntheticState{rng: g.rng.State(), cursor: g.cursor, seq: g.seq}
}

// RestoreSourceState implements Stateful.
func (g *Synthetic) RestoreSourceState(s any) {
	st := s.(syntheticState)
	g.rng.SetState(st.rng)
	g.cursor = st.cursor
	g.seq = st.seq
}

type workingSetState struct {
	rng  uint64
	set  []mbus.Addr
	next uint32
	seq  uint32
}

// SourceState implements Stateful.
func (w *WorkingSet) SourceState() any {
	return workingSetState{
		rng:  w.rng.State(),
		set:  append([]mbus.Addr(nil), w.set...),
		next: w.next,
		seq:  w.seq,
	}
}

// RestoreSourceState implements Stateful.
func (w *WorkingSet) RestoreSourceState(s any) {
	st := s.(workingSetState)
	w.rng.SetState(st.rng)
	w.set = append(w.set[:0], st.set...)
	w.next = st.next
	w.seq = st.seq
}

// SourceState implements Stateful.
func (f *Fixed) SourceState() any { return f.seq }

// RestoreSourceState implements Stateful.
func (f *Fixed) RestoreSourceState(s any) { f.seq = s.(uint32) }

type partitionedState struct {
	rng    uint64
	writes uint32
	count  int
}

// SourceState implements Stateful.
func (p *Partitioned) SourceState() any {
	return partitionedState{rng: p.rng.State(), writes: p.writes, count: p.count}
}

// RestoreSourceState implements Stateful.
func (p *Partitioned) RestoreSourceState(s any) {
	st := s.(partitionedState)
	p.rng.SetState(st.rng)
	p.writes = st.writes
	p.count = st.count
}

var (
	_ Stateful = (*Synthetic)(nil)
	_ Stateful = (*WorkingSet)(nil)
	_ Stateful = (*Fixed)(nil)
	_ Stateful = (*Partitioned)(nil)
)
