package mbus

import (
	"fmt"
	"testing"
)

// tagSnooper is a testSnooper that exposes its tag store to the bus.
type tagSnooper struct {
	*testSnooper
	tags TagStore
}

func (s *tagSnooper) TagStore() *TagStore { return &s.tags }

// newTagSnooper returns a tag snooper with 16 sets of 1<<shift-byte lines.
func newTagSnooper(shift uint) *tagSnooper {
	return &tagSnooper{testSnooper: newTestSnooper(true), tags: TagStore{Keys: make([]Addr, 16), Shift: shift}}
}

// hold makes the snooper hold addr's line: its key is in its set and the
// snooper answers HasLine for the word.
func (s *tagSnooper) hold(addr Addr, data uint32) {
	s.tags.Keys[uint32(addr>>s.tags.Shift)&15] = s.tags.Key(addr)
	s.lines[addr.Line()] = data
}

// TestTagStoreFilter: the bus counts and latches a probe in every tag
// store but the initiator's on every operation, asks a TagSnooper only
// when the operation's line matches its set's key or its fill key, still
// asks a plain Snooper every time, and probes no one on a faulted
// operation.
func TestTagStoreFilter(t *testing.T) {
	b, clock, _ := newTestBus()
	init := &testInitiator{}
	self := newTagSnooper(2) // the initiator's own tag store
	self.hold(0x100, 7)
	b.Attach(init, self, nil)
	one := newTagSnooper(2)  // one-word lines
	four := newTagSnooper(4) // four-word lines
	plain := newTestSnooper(false)
	b.Attach(nil, one, nil)
	b.Attach(nil, four, nil)
	b.Attach(nil, plain, nil)
	one.hold(0x100, 7)
	four.hold(0x10c, 7)

	var ops uint64
	// op runs one operation and checks who was asked and that every tag
	// store counted it and latched its cycle 2.
	op := func(name string, addr Addr, askOne, askFour bool) {
		t.Helper()
		n1, n4, np := len(one.probes), len(four.probes), len(plain.probes)
		start := clock.Now()
		init.issue(MRead, addr, 0)
		run(b, clock, OpCycles)
		ops++
		if got := len(one.probes) - n1; got != boolInt(askOne) {
			t.Errorf("%s: one-word snooper asked %d times, want %d", name, got, boolInt(askOne))
		}
		if got := len(four.probes) - n4; got != boolInt(askFour) {
			t.Errorf("%s: four-word snooper asked %d times, want %d", name, got, boolInt(askFour))
		}
		if got := len(plain.probes) - np; got != 1 {
			t.Errorf("%s: plain snooper asked %d times, want 1", name, got)
		}
		for _, s := range []*tagSnooper{one, four} {
			if s.tags.Probes != ops || s.tags.LastProbed != start+2 {
				t.Errorf("%s: tag store probes %d latched at %d, want %d at %d",
					name, s.tags.Probes, s.tags.LastProbed, ops, start+2)
			}
		}
	}

	// 0x200 falls in the set of 0x100 and 0x10c in both snoopers.
	op("other line, same set", 0x200, false, false)
	op("holder", 0x100, true, true)
	if r := init.results[len(init.results)-1]; !r.Shared || !r.CacheSupplied {
		t.Errorf("holders did not answer: %+v", r)
	}
	op("another word of a four-word line", 0x104, false, true)

	// An invalid line's key has KeyValid clear: no longer a holder.
	one.tags.Keys[0] &^= KeyValid
	four.tags.Keys[0] &^= KeyValid
	op("invalid line", 0x100, false, false)

	// A line being filled is in no set but is asked through the fill key.
	one.tags.FillKey = one.tags.Key(0x300)
	four.tags.FillKey = four.tags.Key(0x300)
	op("fill key", 0x300, true, true)
	op("fill key, other word", 0x308, false, true)
	one.tags.FillKey, four.tags.FillKey = 0, 0
	op("fill key cleared", 0x300, false, false)

	// A faulted operation probes no one and is counted nowhere.
	b.SetFaultInjector(&scriptedInjector{faults: []FaultKind{FaultParity}})
	np, last := len(plain.probes), one.tags.LastProbed
	init.issue(MRead, 0x100, 0)
	run(b, clock, OpCycles)
	if len(plain.probes) != np || one.tags.Probes != ops || four.tags.Probes != ops || one.tags.LastProbed != last {
		t.Errorf("faulted operation probed: plain %d→%d, tag stores %d and %d (want %d), latch %d→%d",
			np, len(plain.probes), one.tags.Probes, four.tags.Probes, ops, last, one.tags.LastProbed)
	}
	if b.Stats().TotalOps() != ops {
		t.Errorf("bus counted %d ops, want %d", b.Stats().TotalOps(), ops)
	}
	if self.tags.Probes != 0 || self.tags.LastProbed != 0 || len(self.probes) != 0 {
		t.Errorf("initiator probed itself: %d probes, latch %d, %d asked", self.tags.Probes, self.tags.LastProbed, len(self.probes))
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// orderSnooper logs its port into a shared log when it commits.
type orderSnooper struct {
	*tagSnooper
	port int
	log  *[]int
}

func (s *orderSnooper) SnoopCommit(op OpKind, addr Addr, data uint32, shared bool) {
	*s.log = append(*s.log, s.port)
	s.tagSnooper.SnoopCommit(op, addr, data, shared)
}

// TestHoldersCommitInPortOrder: the holders of a line commit in port
// order, which fixes the order of the state changes they trace, and a
// tag store that does not hold the line is skipped.
func TestHoldersCommitInPortOrder(t *testing.T) {
	b, clock, _ := newTestBus()
	init := &testInitiator{}
	b.Attach(init, nil, nil)
	var log []int
	for port := 1; port <= 5; port++ {
		s := &orderSnooper{tagSnooper: newTagSnooper(2), port: port, log: &log}
		if port != 3 {
			s.hold(0x100, 5)
		}
		if got := b.Attach(nil, s, nil); got != port {
			t.Fatalf("attached at port %d, want %d", got, port)
		}
	}
	for i := 0; i < 2; i++ {
		init.issue(MReadOwn, 0x100, 0)
		run(b, clock, OpCycles)
	}
	if want := []int{1, 2, 4, 5, 1, 2, 4, 5}; fmt.Sprint(log) != fmt.Sprint(want) {
		t.Errorf("commit order %v, want %v", log, want)
	}
}
