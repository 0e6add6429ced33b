package cpu

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"firefly/internal/core"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// machine is a minimal CPU test bench: bus, memory, caches, processors,
// stepped in the production order (bus, then processors).
type machine struct {
	clock *sim.Clock
	bus   *mbus.Bus
	mem   *memory.System
	cpus  []*Processor
}

func newMachine(n int, v Variant, mkSource func(i int, c *core.Cache) trace.Source) *machine {
	m := &machine{clock: &sim.Clock{}}
	m.mem = memory.NewMicroVAXSystem(4)
	m.bus = mbus.New(m.clock, nil, m.mem)
	for i := 0; i < n; i++ {
		cache := core.NewCache(m.clock, core.Firefly{}, 256)
		p := New(i, m.clock, v, cache, nil, 1000+uint64(i))
		p.SetSource(mkSource(i, cache))
		m.bus.Attach(cache, cache, p)
		m.cpus = append(m.cpus, p)
	}
	return m
}

// run advances m the way Machine.Step does: each cycle it steps the bus
// and then, on a tick boundary, ticks every processor.
func (m *machine) run(cycles int) { m.tickRun(cycles) }

// cycle moves m to the next cycle and steps the bus there.
// It reports whether that cycle is a tick boundary.
func (m *machine) cycle() (boundary bool) {
	m.clock.Tick()
	m.bus.Step()
	return uint64(m.clock.Now())%uint64(m.cpus[0].v.TickCycles) == 0
}

func hitSource(int, *core.Cache) trace.Source { return &trace.Fixed{Addr: 0x1000} }

func syntheticSource(miss float64) func(int, *core.Cache) trace.Source {
	shared := trace.NewSharedRegion(0x300000, 16)
	return func(i int, c *core.Cache) trace.Source {
		return trace.NewSynthetic(trace.SyntheticConfig{
			MissRate:     miss,
			PrivateBase:  mbus.Addr(0x10000 + i*0x10000),
			PrivateBytes: 0x10000,
			Seed:         77 + uint64(i),
		}, shared, c)
	}
}

func TestVariantValidate(t *testing.T) {
	for _, v := range []Variant{MicroVAX78032(), CVAX78034()} {
		if err := v.Validate(); err != nil {
			t.Errorf("%s: %v", v.Name, err)
		}
	}
	bad := []Variant{
		{TickCycles: 0, BaseTPI: 10},
		{TickCycles: 1, BaseTPI: 0.5},
		{TickCycles: 1, BaseTPI: math.NaN()},
		{TickCycles: 1, BaseTPI: math.Inf(1)},
		{TickCycles: 1, BaseTPI: 10, IR: -1},
		{TickCycles: 1, BaseTPI: 10, IR: 2},
		{TickCycles: 1, BaseTPI: 10, OnChipHitRate: 1.5},
		{TickCycles: 1, BaseTPI: 10, PartialWriteFraction: -0.2},
	}
	for i, v := range bad {
		if err := v.Validate(); err == nil {
			t.Errorf("bad variant %d validated", i)
		}
	}
	if tr := MicroVAX78032().TR(); math.Abs(tr-2.13) > 1e-9 {
		t.Fatalf("TR = %v", tr)
	}
}

func TestNewPanics(t *testing.T) {
	clock := &sim.Clock{}
	cache := core.NewCache(clock, core.Firefly{}, 16)
	defer func() {
		if recover() == nil {
			t.Fatal("invalid variant did not panic")
		}
	}()
	New(0, clock, Variant{}, cache, nil, 1)
}

func TestBaseTPIWithAllHits(t *testing.T) {
	// A single processor whose references always hit must achieve its base
	// TPI (one cold miss aside).
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.run(400_000) // 200k ticks ≈ 16.8k instructions
	st := m.cpus[0].Stats()
	if st.Instructions < 10_000 {
		t.Fatalf("only %d instructions retired", st.Instructions)
	}
	tpi := st.TPI()
	if math.Abs(tpi-11.9) > 0.1 {
		t.Fatalf("TPI = %v, want ~11.9", tpi)
	}
	if st.StallTicks > 10 {
		t.Fatalf("all-hit run stalled %d ticks", st.StallTicks)
	}
}

func TestReferenceMix(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.run(500_000)
	st := m.cpus[0].Stats()
	refsPerInstr := float64(st.Refs()) / float64(st.Instructions)
	if math.Abs(refsPerInstr-2.13) > 0.05 {
		t.Fatalf("refs/instr = %v, want ~2.13", refsPerInstr)
	}
	readRatio := float64(st.Reads) / float64(st.Refs())
	if math.Abs(readRatio-1.73/2.13) > 0.02 {
		t.Fatalf("read fraction = %v, want ~0.812", readRatio)
	}
}

func TestMissPenaltyMatchesModel(t *testing.T) {
	// With every reference missing and no other bus users, each miss costs
	// the model's N=2 extra ticks (fill or direct write-through), so
	// TPI ≈ 11.9 + TR*N ≈ 16.2 (all lines stay clean: reads fill
	// Exclusive, write misses use the direct write-through).
	m := newMachine(1, MicroVAX78032(), syntheticSource(1.0))
	m.run(400_000)
	st := m.cpus[0].Stats()
	tpi := st.TPI()
	want := 11.9 + 2.13*2
	if math.Abs(tpi-want) > 0.5 {
		t.Fatalf("TPI = %v, want ~%v", tpi, want)
	}
	cst := m.cpus[0].Cache().Stats()
	if cst.VictimWrites != 0 {
		t.Fatalf("unexpected victim writes: %d", cst.VictimWrites)
	}
}

func TestMissRateTracksSource(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), syntheticSource(0.2))
	m.run(600_000)
	cst := m.cpus[0].Cache().Stats()
	if mr := cst.MissRate(); math.Abs(mr-0.2) > 0.03 {
		t.Fatalf("miss rate = %v, want ~0.2", mr)
	}
}

func TestOnChipICacheAbsorbsInstrReads(t *testing.T) {
	v := CVAX78034()
	v.OnChipHitRate = 1.0
	m := newMachine(1, v, hitSource)
	m.run(100_000)
	st := m.cpus[0].Stats()
	if st.OnChipHits == 0 {
		t.Fatal("no on-chip hits recorded")
	}
	// All board-cache reads must now be data reads: per instruction
	// Reads/Instructions ≈ DR = 0.78.
	perInstr := float64(st.Reads) / float64(st.Instructions)
	if math.Abs(perInstr-0.78) > 0.03 {
		t.Fatalf("board reads/instr = %v, want ~0.78 (DR only)", perInstr)
	}
}

func TestCVAXTicksTwiceAsFast(t *testing.T) {
	mv := newMachine(1, MicroVAX78032(), hitSource)
	cv := newMachine(1, CVAX78034(), hitSource)
	mv.run(100_000)
	cv.run(100_000)
	mvTicks := mv.cpus[0].Stats().Ticks
	cvTicks := cv.cpus[0].Stats().Ticks
	if cvTicks < mvTicks*19/10 || cvTicks > mvTicks*21/10 {
		t.Fatalf("tick ratio = %d/%d, want ~2", cvTicks, mvTicks)
	}
}

func TestHaltResume(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.run(1000)
	m.cpus[0].Halt()
	if !m.cpus[0].Halted() {
		t.Fatal("not halted")
	}
	before := m.cpus[0].Stats().Ticks
	m.run(1000)
	if m.cpus[0].Stats().Ticks != before {
		t.Fatal("halted CPU consumed ticks")
	}
	m.cpus[0].Resume()
	m.run(1000)
	if m.cpus[0].Stats().Ticks == before {
		t.Fatal("resumed CPU did not run")
	}
}

func TestInterruptDeliveryAndDrain(t *testing.T) {
	m := newMachine(2, MicroVAX78032(), hitSource)
	m.bus.Interrupt(0, 1)
	m.bus.Interrupt(0, 1)
	ints := m.cpus[1].TakeInterrupts()
	if len(ints) != 2 || ints[0] != 0 {
		t.Fatalf("interrupts = %v", ints)
	}
	if len(m.cpus[1].TakeInterrupts()) != 0 {
		t.Fatal("drain not empty")
	}
	if m.cpus[1].Stats().Interrupts != 2 {
		t.Fatalf("interrupt counter = %d", m.cpus[1].Stats().Interrupts)
	}
}

func TestInstrHookAndSetSource(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	var hookCount int
	other := &trace.Fixed{Addr: 0x2000}
	m.cpus[0].SetInstrHook(func(p *Processor) bool {
		hookCount++
		if hookCount == 5 {
			p.SetSource(other)
		}
		return true
	})
	m.run(2000)
	if hookCount == 0 {
		t.Fatal("hook never fired")
	}
	if m.cpus[0].Source() != other {
		t.Fatal("SetSource from hook did not take effect")
	}
	// The new source's address must now be cached.
	if !m.cpus[0].Cache().Contains(0x2000) {
		t.Fatal("references did not follow the new source")
	}
}

func TestHookCanHalt(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.cpus[0].SetInstrHook(func(p *Processor) bool { p.Halt(); return true })
	m.run(1000)
	st := m.cpus[0].Stats()
	if st.Instructions > 2 {
		t.Fatalf("halt from hook ignored: %d instructions", st.Instructions)
	}
}

// tickRun advances m like run and counts the boundaries at which CPU 0's
// tick reported non-local.
func (m *machine) tickRun(cycles int) (nonLocal int) {
	for i := 0; i < cycles; i++ {
		if !m.cycle() {
			continue
		}
		for j, p := range m.cpus {
			if !p.Tick() && j == 0 {
				nonLocal++
			}
		}
	}
	return nonLocal
}

// TestTickHookLocal: on a warm cache, where every reference hits, a
// hook that reports local leaves every tick local although it runs at
// every instruction boundary.
func TestTickHookLocal(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.run(1000)
	calls := 0
	m.cpus[0].SetInstrHook(func(*Processor) bool { calls++; return true })
	if n := m.tickRun(2000); n != 0 {
		t.Fatalf("%d non-local ticks with a local hook and an all-hit source", n)
	}
	if calls == 0 {
		t.Fatal("hook never ran")
	}
}

// TestTickHookNonLocal: a hook that reports non-local makes exactly the
// ticks it runs on non-local.
func TestTickHookNonLocal(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.run(1000)
	calls := 0
	m.cpus[0].SetInstrHook(func(*Processor) bool { calls++; return false })
	n := m.tickRun(2000)
	if calls == 0 || n != calls {
		t.Fatalf("%d non-local ticks for %d non-local hook calls", n, calls)
	}
}

// TestTickMissNonLocal: a tick that leaves a cache access outstanding is
// non-local even with a local hook; on a cold cache the first reference
// misses.
func TestTickMissNonLocal(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), hitSource)
	m.cpus[0].SetInstrHook(func(*Processor) bool { return true })
	if n := m.tickRun(200); n == 0 {
		t.Fatal("a cold-cache miss left every tick local")
	}
	if n := m.tickRun(2000); n != 0 {
		t.Fatalf("%d non-local ticks once the cache is warm", n)
	}
}

// TestTickHookHaltMatchesStep: a hook that halts the processor on its
// third call halts it whichever answer the hook gives, twin rigs end in
// the same state, and Tick passes that answer on for the halting call
// too.
func TestTickHookHaltMatchesStep(t *testing.T) {
	for _, answer := range []bool{true, false} {
		mk := func() *machine {
			m := newMachine(1, MicroVAX78032(), hitSource)
			m.run(1000)
			calls := 0
			m.cpus[0].SetInstrHook(func(p *Processor) bool {
				if calls++; calls == 3 {
					p.Halt()
				}
				return answer
			})
			return m
		}
		stepped, ticked := mk(), mk()
		stepped.run(500)
		nonLocal := ticked.tickRun(500)
		sp, tp := stepped.cpus[0], ticked.cpus[0]
		if !sp.Halted() || !tp.Halted() {
			t.Fatalf("answer %v: halted: stepped %v, ticked %v", answer, sp.Halted(), tp.Halted())
		}
		if sp.Stats() != tp.Stats() {
			t.Fatalf("answer %v: stats diverged\nstepped %+v\nticked  %+v", answer, sp.Stats(), tp.Stats())
		}
		if want := map[bool]int{true: 0, false: 3}[answer]; nonLocal != want {
			t.Fatalf("answer %v: %d non-local ticks, want %d", answer, nonLocal, want)
		}
	}
}

func TestProbeStallsUnderSnooping(t *testing.T) {
	// Two CPUs: CPU 1 misses constantly, so its bus operations probe CPU
	// 0's tag store; CPU 0 (all hits) must record probe stalls.
	m := newMachine(2, MicroVAX78032(), func(i int, c *core.Cache) trace.Source {
		if i == 0 {
			return &trace.Fixed{Addr: 0x1000}
		}
		return syntheticSource(1.0)(i, c)
	})
	m.run(200_000)
	st := m.cpus[0].Stats()
	if st.ProbeStalls == 0 {
		t.Fatal("no probe stalls despite heavy snooping")
	}
	// The stall rate must be in the neighbourhood of the model's SP term:
	// probability L/N per reference.
	load := m.bus.Stats().Load()
	perRef := float64(st.ProbeStalls) / float64(st.Refs())
	want := load / 2
	if perRef < want*0.5 || perRef > want*1.6 {
		t.Fatalf("probe stalls/ref = %v, want ~%v (L/N with L=%v)", perRef, want, load)
	}
}

// TestSecondProbeStall pins the processor's tag-store rule at
// three-cycle ticks, driven by hand with faked probes: a reference that
// took its SP stall stalls again, counted in ProbeStalls, while a probe
// lands in its boundary cycle (whose snoop commits only in the next
// cycle), and submits at the next boundary without one; a probe earlier
// in the tick has committed and does not stall it again.
func TestSecondProbeStall(t *testing.T) {
	v := MicroVAX78032()
	v.TickCycles = 3
	for _, tc := range []struct {
		name   string
		second int  // cycle of the second probe, after the first stall's boundary
		again  bool // whether it stalls the reference again
	}{
		{"probe in the boundary cycle", 3, true},
		{"probe a cycle before the boundary", 2, false},
	} {
		m := newMachine(1, v, hitSource)
		m.tickRun(3000)
		p := m.cpus[0]
		// Tick until the next tick is a reference, then probe two cycles
		// before its boundary: inside its tick, and at least four cycles
		// before the second probe, as two MBus operations are.
		for i := 0; !p.atReference(); i++ {
			if i == 10_000 {
				t.Fatal("CPU 0 never reached a reference step")
			}
			if m.cycle() {
				p.Tick()
			}
		}
		cycles := func(n int) {
			for i := 0; i < n; i++ {
				m.cycle()
			}
		}
		probe := func() { p.cache.TagStore().Probe(p.clock.Now()) }
		st := p.Stats()
		cycles(1)
		probe()
		cycles(2)
		p.Tick()
		if got := p.Stats(); got.ProbeStalls != st.ProbeStalls+1 || got.Refs() != st.Refs() {
			t.Fatalf("%s: first tick: %d probe stalls and %d refs, want %d and %d",
				tc.name, got.ProbeStalls, got.Refs(), st.ProbeStalls+1, st.Refs())
		}
		cycles(tc.second)
		probe()
		cycles(3 - tc.second)
		p.Tick()
		stalls := st.ProbeStalls + 1
		if tc.again {
			stalls++
			if got := p.Stats(); got.ProbeStalls != stalls || got.Refs() != st.Refs() {
				t.Fatalf("%s: second tick: %d probe stalls and %d refs, want %d and %d",
					tc.name, got.ProbeStalls, got.Refs(), stalls, st.Refs())
			}
			cycles(3)
			p.Tick()
		}
		if got := p.Stats(); got.ProbeStalls != stalls || got.Refs() != st.Refs()+1 {
			t.Fatalf("%s: at the first probe-free boundary: %d probe stalls and %d refs, want %d and %d",
				tc.name, got.ProbeStalls, got.Refs(), stalls, st.Refs()+1)
		}
	}

	// Probes every fourth cycle, the densest the MBus allows, at every
	// phase: at one- and two-cycle ticks two boundaries in a row never
	// both see a probe, so no reference stalls twice; at three-cycle
	// ticks some do.
	for _, ticks := range []int{1, 2, 3} {
		for phase := 0; phase < 4; phase++ {
			stalls, seconds := periodicProbeStalls(ticks, phase, 40_000)
			if stalls == 0 {
				t.Errorf("%d-cycle ticks, phase %d: no probe stalls", ticks, phase)
			}
			if ticks < 3 && seconds != 0 {
				t.Errorf("%d-cycle ticks, phase %d: %d second stalls, want 0", ticks, phase, seconds)
			}
			if ticks == 3 && seconds == 0 {
				t.Errorf("3-cycle ticks, phase %d: no second stall", phase)
			}
		}
	}
}

// periodicProbeStalls runs one warm, all-hit processor at the given tick
// length for n cycles while a faked snoop probe hits its tag store in
// every cycle congruent to phase mod 4. It returns the probe stalls and
// how many of them stalled a reference that had already stalled.
func periodicProbeStalls(ticks, phase, n int) (stalls, seconds uint64) {
	v := MicroVAX78032()
	v.TickCycles = ticks
	m := newMachine(1, v, hitSource)
	m.tickRun(1000 * ticks)
	p := m.cpus[0]
	before := p.Stats().ProbeStalls
	for i := 0; i < n; i++ {
		boundary := m.cycle()
		if now := p.clock.Now(); int(now%4) == phase {
			p.cache.TagStore().Probe(now)
		}
		if !boundary {
			continue
		}
		again, k := p.probeStalled, p.stats.ProbeStalls
		p.Tick()
		if again && p.stats.ProbeStalls > k {
			seconds++
		}
	}
	return p.Stats().ProbeStalls - before, seconds
}

func TestDeterminism(t *testing.T) {
	run := func() Stats {
		m := newMachine(2, MicroVAX78032(), syntheticSource(0.2))
		m.run(50_000)
		return m.cpus[0].Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestStallAccountingConsistent(t *testing.T) {
	m := newMachine(1, MicroVAX78032(), syntheticSource(0.5))
	m.run(200_000)
	st := m.cpus[0].Stats()
	if st.StallTicks == 0 {
		t.Fatal("a 50%-miss run must stall")
	}
	if st.StallTicks >= st.Ticks {
		t.Fatalf("stalls %d >= ticks %d", st.StallTicks, st.Ticks)
	}
	// TPI grows with the stalls: base + stalls per instruction.
	wantTPI := 11.9 + float64(st.StallTicks)/float64(st.Instructions)
	if math.Abs(st.TPI()-wantTPI) > 0.2 {
		t.Fatalf("TPI = %v, want ~%v from stall accounting", st.TPI(), wantTPI)
	}
}

// refLog is a reference source that records each reference with the
// cycle it was drawn at, so two runs compare by timing as well as by
// address.
type refLog struct {
	src   trace.Source
	clock *sim.Clock
	refs  []refAt
}

type refAt struct {
	at      sim.Cycle
	kind    trace.Kind
	addr    mbus.Addr
	partial bool
}

func (r *refLog) Next(k trace.Kind) trace.Ref {
	ref := r.src.Next(k)
	r.refs = append(r.refs, refAt{r.clock.Now(), k, ref.Addr, ref.Partial})
	return ref
}

// atReference reports whether p's next tick issues a reference.
func (p *Processor) atReference() bool {
	return !p.waiting && !p.in.boundary() && p.in.left == 0
}

// idle advances m like run without stepping the processors: the cycles a
// caller has applied to them by RunPrivate.
func (m *machine) idle(cycles int) {
	for i := 0; i < cycles; i++ {
		m.cycle()
	}
}

// TestRunPrivateComputeMatchesTicks: at a tick boundary with k compute
// ticks ahead, RunPrivate(n) followed by n elided boundaries leaves the
// processor exactly where n real ticks do, for every n <= k: the same
// counters, no boundary crossed, and the same next 1000 references at
// the same cycles.
func TestRunPrivateComputeMatchesTicks(t *testing.T) {
	for _, v := range []Variant{MicroVAX78032(), CVAX78034()} {
		tc := v.TickCycles
		for seed := uint64(1); seed <= 4; seed++ {
			mk := func(boundaries int) (*machine, *refLog) {
				var log *refLog
				m := newMachine(1, v, func(i int, c *core.Cache) trace.Source {
					src := trace.NewSynthetic(trace.SyntheticConfig{
						MissRate: 0.1, PrivateBase: 0x10000, PrivateBytes: 0x10000, Seed: seed,
					}, trace.NewSharedRegion(0x300000, 16), c)
					log = &refLog{src: src}
					return log
				})
				log.clock = m.clock
				m.tickRun(boundaries * tc)
				return m, log
			}
			// Find the first boundary after warmup with at least two
			// compute ticks ahead.
			at := 500 + int(seed)*37
			probe, _ := mk(at)
			for probe.cpus[0].ComputeAhead() < 2 {
				probe.tickRun(tc)
				at++
			}
			ahead := probe.cpus[0].ComputeAhead()
			for n := 1; n <= ahead; n++ {
				skip, skipLog := mk(at)
				tick, tickLog := mk(at)
				if b := skip.cpus[0].RunPrivate(n, nil); b != 0 {
					t.Fatalf("%s seed %d n=%d of %d: RunPrivate crossed %d boundaries", v.Name, seed, n, ahead, b)
				}
				skip.idle(n * tc)
				tick.tickRun(n * tc)
				sp, tp := skip.cpus[0], tick.cpus[0]
				if sp.Stats() != tp.Stats() {
					t.Fatalf("%s seed %d n=%d of %d: stats diverged\nskipped %+v\nticked  %+v",
						v.Name, seed, n, ahead, sp.Stats(), tp.Stats())
				}
				base := len(tickLog.refs)
				for len(tickLog.refs) < base+1000 {
					skip.tickRun(tc)
					tick.tickRun(tc)
				}
				for i := base; i < base+1000; i++ {
					if skipLog.refs[i] != tickLog.refs[i] {
						t.Fatalf("%s seed %d n=%d of %d: reference %d diverged: skipped %+v, ticked %+v",
							v.Name, seed, n, ahead, i-base, skipLog.refs[i], tickLog.refs[i])
					}
				}
				if sp.Stats() != tp.Stats() {
					t.Fatalf("%s seed %d n=%d of %d: stats diverged after 1000 references", v.Name, seed, n, ahead)
				}
			}
		}
	}
}

// TestRunPrivateStallMatchesTicks: at the boundary where a processor
// starts waiting on its cache's bus operation, with k boundaries ahead at
// which the cache is still Busy, RunPrivate(n) at the n-th of them, the
// processor not ticked before it, leaves the processor exactly where n
// real ticks do, for every n <= k, and both go on to the same counters.
func TestRunPrivateStallMatchesTicks(t *testing.T) {
	for _, v := range []Variant{MicroVAX78032(), CVAX78034()} {
		tc := v.TickCycles
		mk := func() *machine {
			m := newMachine(1, v, syntheticSource(0.5))
			m.tickRun(100 * tc)
			for p := m.cpus[0]; !p.Waiting() || !p.Cache().AwaitsBus(); {
				m.tickRun(tc)
			}
			return m
		}
		probe, k := mk(), 0
		for probe.idle(tc); probe.cpus[0].Cache().Busy(); probe.idle(tc) {
			k++
		}
		if k == 0 {
			t.Fatalf("%s: the bus operation completed before the next boundary", v.Name)
		}
		for n := 1; n <= k; n++ {
			skip, tick := mk(), mk()
			skip.idle(n * tc)
			if b := skip.cpus[0].RunPrivate(n, nil); b != 0 {
				t.Fatalf("%s n=%d of %d: RunPrivate crossed %d boundaries", v.Name, n, k, b)
			}
			tick.tickRun(n * tc)
			sp, tp := skip.cpus[0], tick.cpus[0]
			if sp.Stats() != tp.Stats() || sp.Stats().StallTicks == 0 {
				t.Fatalf("%s n=%d of %d: stats diverged or no stall\nskipped %+v\nticked  %+v", v.Name, n, k, sp.Stats(), tp.Stats())
			}
			skip.tickRun(200 * tc)
			tick.tickRun(200 * tc)
			if sp.Stats() != tp.Stats() {
				t.Fatalf("%s n=%d of %d: stats diverged after the wake\nskipped %+v\nticked  %+v", v.Name, n, k, sp.Stats(), tp.Stats())
			}
		}
	}
}

// TestComputeAhead: ComputeAhead is 0 while halted, while waiting on the
// cache, at a reference step and at an instruction boundary, and
// otherwise counts ticks that touch neither the reference source nor
// the instruction hook, after which the processor is at one of the
// states where it reports 0.
func TestComputeAhead(t *testing.T) {
	for _, v := range []Variant{MicroVAX78032(), CVAX78034()} {
		var logs []*refLog
		m := newMachine(2, v, func(i int, c *core.Cache) trace.Source {
			log := &refLog{src: syntheticSource(0.3)(i, c)}
			logs = append(logs, log)
			return log
		})
		for _, log := range logs {
			log.clock = m.clock
		}
		p := m.cpus[0]
		hooks := 0
		p.SetInstrHook(func(*Processor) bool { hooks++; return true })
		seen := map[string]int{}
		state := func() string {
			switch {
			case p.waiting:
				return "waiting"
			case p.in.boundary():
				return "boundary"
			case p.in.left == 0:
				return "reference"
			}
			return "compute"
		}
		for i := 0; i < 20_000; i++ {
			m.tickRun(v.TickCycles)
			ahead := p.ComputeAhead()
			st := state()
			seen[st]++
			if st != "compute" {
				if ahead != 0 {
					t.Fatalf("%s: ComputeAhead %d %s", v.Name, ahead, st)
				}
				continue
			}
			if ahead < 1 || ahead != p.in.left {
				t.Fatalf("%s: ComputeAhead %d in a compute slot of %d ticks left", v.Name, ahead, p.in.left)
			}
			refs, calls := len(logs[0].refs), hooks
			m.tickRun(ahead * v.TickCycles)
			if len(logs[0].refs) != refs || hooks != calls {
				t.Fatalf("%s: %d compute ticks drew %d references and ran %d hooks",
					v.Name, ahead, len(logs[0].refs)-refs, hooks-calls)
			}
			after := state()
			if after != "boundary" && after != "reference" {
				t.Fatalf("%s: %s after the %d compute ticks counted", v.Name, after, ahead)
			}
			seen[after]++
			if n := p.ComputeAhead(); n != 0 {
				t.Fatalf("%s: %d compute ticks ahead after the %d counted", v.Name, n, ahead)
			}
		}
		for _, state := range []string{"compute", "waiting", "boundary", "reference"} {
			if seen[state] == 0 {
				t.Errorf("%s: never sampled a processor %s", v.Name, state)
			}
		}
		p.Halt()
		if n := p.ComputeAhead(); n != 0 {
			t.Errorf("%s: ComputeAhead %d while halted", v.Name, n)
		}
	}
}

// probeAtNextRef ticks m boundary by boundary until CPU 0 is at a
// reference step, and there makes a snoop probe hit its tag store in the
// same cycle, before the tick: the tick stalls on the probe and latches
// it. Boundaries crossed on the way count into *hooks through the hook.
func (m *machine) probeAtNextRef(t *testing.T) {
	t.Helper()
	p := m.cpus[0]
	for i := 0; ; i++ {
		if i == 10_000 {
			t.Fatal("CPU 0 never reached a reference step")
		}
		if !m.cycle() {
			continue
		}
		if p.atReference() {
			p.cache.TagStore().Probe(p.clock.Now())
			p.Tick()
			if !p.probeStalled {
				t.Fatal("the probe did not stall the reference")
			}
			return
		}
		p.Tick()
	}
}

// TestRunPrivateMatchesTicks: on a warm cache where every reference of a
// static working set hits locally, RunPrivate(n, ws) leaves the
// processor, its cache and the set exactly where n ticks leave them,
// and returns the boundaries the hook would have seen. n ends the run at
// every tick offset of the first few instructions (whole instructions
// and partial ones) and far beyond, on the MicroVAX, on the CVAX
// (on-chip draws), on a CVAX whose on-chip cache takes data reads too,
// with the processor's partial-write draws, with those and the set's own
// (each live: the processor draws only when the set's draw came out
// false), and with instructions so short that a reference retires them.
// Each run starts at a reference that took a probe stall, whose latch
// only an issued reference may clear (RunPrivate(0, ws) keeps it), or
// some boundaries later, after a warm-up that dirtied every line or one
// that made no data writes, so the run's writes find clean lines and
// move their states. The two copies must agree on the counters, the
// instruction record, the latch, the next draws of the processor's
// generator and of the set's, the cache's counters, last read, and the
// states and data words of the set's lines, and on every reference the
// source gives afterwards. Neither RunPrivate nor a tick allocates.
func TestRunPrivateMatchesTicks(t *testing.T) {
	partial := MicroVAX78032()
	partial.Name, partial.PartialWriteFraction = "MicroVAX, partial writes", 0.3
	short := MicroVAX78032()
	short.Name, short.BaseTPI = "MicroVAX, 2.5 TPI", 2.5 // instructions that end on a reference
	onChipData := CVAX78034()
	onChipData.Name, onChipData.OnChipDCache = "CVAX, on-chip data", true
	cases := []struct {
		name       string
		v          Variant
		setPartial float64 // the working set's PartialWriteFraction
	}{
		{"microvax", MicroVAX78032(), 0},
		{"cvax", CVAX78034(), 0},
		{"cvax-onchip-data", onChipData, 0},
		{"partial-writes", partial, 0},
		{"both-partial-draws", partial, 0.3},
		{"short-instructions", short, 0},
	}
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	ns = append(ns, 1000)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { runPrivateMatchesTicks(t, c.v, c.setPartial, ns) })
	}
}

// runPrivateMatchesTicks runs one case of TestRunPrivateMatchesTicks:
// variant v on a working set whose PartialWriteFraction is setPartial,
// ending runs at each n of ns.
func runPrivateMatchesTicks(t *testing.T, v Variant, setPartial float64, ns []int) {
	tc := v.TickCycles
	newSet := func() *trace.WorkingSet {
		return trace.NewWorkingSet(trace.WorkingSetConfig{
			Base: 0x10000, Bytes: 0x400, SetLines: 8, PartialWriteFraction: setPartial, Seed: 9,
		})
	}
	setPartials := map[bool]int{} // the set's partial-write answers seen by ticks
	for _, clean := range []bool{false, true} {
		for _, after := range []int{0, 3, 7} {
			for _, n := range ns {
				name := fmt.Sprintf("clean %v, %d boundaries after the stall, n=%d", clean, after, n)
				mk := func() (*machine, *int, *refLog, *trace.WorkingSet) {
					ws := newSet()
					log := &refLog{src: ws}
					m := newMachine(1, v, func(int, *core.Cache) trace.Source { return log })
					log.clock = m.clock
					p := m.cpus[0]
					hooks := new(int)
					p.SetInstrHook(func(*Processor) bool { *hooks++; return true })
					if clean {
						p.dw = sim.NewChance(0) // the set's lines arrive Exclusive and stay so
					}
					m.tickRun(4000 * tc)
					p.dw = sim.NewChance(v.DW)
					m.probeAtNextRef(t)
					m.tickRun(after * tc)
					return m, hooks, log, ws
				}
				priv, privHooks, privLog, privSet := mk()
				tick, tickHooks, tickLog, tickSet := mk()
				pp, tp := priv.cpus[0], tick.cpus[0]
				if !pp.cache.HitsLocally(privSet.Lines()) {
					t.Fatalf("%s: working set not resident after warm-up", name)
				}
				if clean && !slices.ContainsFunc(privSet.Lines(), func(a mbus.Addr) bool {
					return pp.cache.LineState(a) == core.Exclusive
				}) {
					t.Fatalf("%s: no clean line left for the run to write", name)
				}
				privBefore, tickBefore := *privHooks, *tickHooks
				logged, issued := len(privLog.refs), pp.Stats().Refs()+pp.Stats().OnChipHits
				boundaries := pp.RunPrivate(n, privSet)
				if *privHooks != privBefore {
					t.Fatalf("%s: RunPrivate ran the hook", name)
				}
				*privHooks += int(boundaries) // as the scheduler is handed them
				priv.idle(n * tc)
				tick.tickRun(n * tc)
				if got, want := boundaries, uint64(*tickHooks-tickBefore); got != want {
					t.Fatalf("%s: RunPrivate crossed %d boundaries, ticks ran the hook %d times", name, got, want)
				}
				if ps, ts := processorState(pp, privSet), processorState(tp, tickSet); ps != ts {
					t.Fatalf("%s: diverged\nprivate %s\nticked  %s", name, ps, ts)
				}
				// RunPrivate draws from the set, not through the source,
				// so only the ticked copy logged the run's references.
				run := len(tickLog.refs) - len(privLog.refs)
				if want := pp.Stats().Refs() + pp.Stats().OnChipHits - issued; len(privLog.refs) != logged || uint64(run) != want {
					t.Fatalf("%s: RunPrivate logged %d references; ticks logged %d, want %d", name, len(privLog.refs)-logged, run, want)
				}
				for round := 0; round < 3; round++ {
					priv.probeAtNextRef(t)
					tick.probeAtNextRef(t)
					priv.tickRun(50 * tc)
					tick.tickRun(50 * tc)
					if ps, ts := processorState(pp, privSet), processorState(tp, tickSet); ps != ts {
						t.Fatalf("%s round %d: diverged\nprivate %s\nticked  %s", name, round, ps, ts)
					}
				}
				if *privHooks != *tickHooks {
					t.Fatalf("%s: hook ran %d times after RunPrivate, %d after ticks", name, *privHooks, *tickHooks)
				}
				if len(privLog.refs)+run != len(tickLog.refs) {
					t.Fatalf("%s: %d references after RunPrivate, %d after ticks", name, len(privLog.refs)-logged, len(tickLog.refs)-logged-run)
				}
				for i, pr := range privLog.refs {
					// RunPrivate reads no clock, so only the references
					// after it carry comparable cycles.
					tr := tickLog.refs[i]
					if i < logged {
						pr.at, tr.at = 0, 0
					} else {
						tr = tickLog.refs[i+run]
					}
					if pr != tr {
						t.Fatalf("%s: reference %d diverged: private %+v, ticked %+v", name, i, pr, tr)
					}
				}
				for _, r := range tickLog.refs {
					if r.kind == trace.DataWrite {
						setPartials[r.partial]++
					}
				}
			}
		}
	}
	if setPartial > 0 && (setPartials[true] == 0 || setPartials[false] == 0) {
		t.Errorf("the set's partial-write draw is not live: %v", setPartials)
	}
	ws := newSet()
	m := newMachine(1, v, func(int, *core.Cache) trace.Source { return ws })
	m.tickRun(4000 * tc)
	p := m.cpus[0]
	if a := testing.AllocsPerRun(100, func() { p.RunPrivate(1000, ws) }); a != 0 {
		t.Errorf("RunPrivate(1000) allocates %v times", a)
	}
	if a := testing.AllocsPerRun(100, func() { m.tickRun(100 * tc) }); a != 0 {
		t.Errorf("100 ticks allocate %v times", a)
	}
}

// processorState renders what a private run and ticks must leave alike:
// the counters, the instruction's position (its split too, unless it has
// retired), the carry, the flags, the next draws of the processor's
// generator, the cache's counters and last read, the states and data
// words of ws's lines, and ws's next draws. Reading those moves ws's
// generator, so both copies must be rendered at the same points.
func processorState(p *Processor, ws *trace.WorkingSet) string {
	in := p.in
	if in.boundary() {
		in.chunk, in.extra = 0, 0 // a retired instruction's split is dead
	}
	rng := *p.rng
	draws := [3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
	var states []core.State
	var words []uint32
	for _, a := range ws.Lines() {
		states = append(states, p.cache.LineState(a))
		w, _ := p.cache.PeekWord(a)
		words = append(words, w)
	}
	var picks [4]trace.Ref
	for i := range picks {
		picks[i] = ws.Pick(trace.DataWrite)
	}
	return fmt.Sprintf("%+v %+v carry %v waiting %v latched %v draws %x cache %+v last read %x %v data %x set draws %+v",
		p.Stats(), in, p.tpiCarry, p.waiting, p.probeStalled, draws, p.cache.Stats(), p.cache.LastRead(), states, words, picks)
}
