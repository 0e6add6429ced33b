package topaz

import (
	"fmt"

	"firefly/internal/core"
	"firefly/internal/cpu"
	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/obs"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// Config tunes the kernel (the Nub of Figure 2: thread scheduling plus the
// primitives everything else is built on).
type Config struct {
	// Quantum is the preemption interval in instructions (default 2000).
	Quantum uint64
	// Dispatch selects the ready-queue discipline (nil: OldestFirst, the
	// migration-heavy FIFO; MigrationAverse{} is the Topaz scheduler's
	// affinity preference). The kernel adopts the policy instance;
	// stateful policies must not be shared between kernels.
	Dispatch DispatchPolicy
	// SwitchCost is the kernel instruction overhead of a context switch
	// (default 50).
	SwitchCost uint64
	// Seed drives scheduling randomness.
	Seed uint64
}

const (
	// kernelBase is the shared region holding lock words and kernel data.
	kernelBase mbus.Addr = 0x8000
	// Address spaces follow one another from spaceBase, spaceBytes each.
	spaceBase  mbus.Addr = 0x100000
	spaceBytes uint32    = 1 << 20
)

func (c Config) withDefaults() Config {
	if c.Quantum == 0 {
		c.Quantum = 2000
	}
	if c.SwitchCost == 0 {
		c.SwitchCost = 50
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Dispatch == nil {
		c.Dispatch = OldestFirst{}
	}
	return c
}

// sleeper is a thread blocked on the timer.
type sleeper struct {
	t      *Thread
	wakeAt sim.Cycle
}

// Stats counts kernel activity.
type Stats struct {
	ContextSwitches uint64
	Migrations      uint64
	Preemptions     uint64
	Forks           uint64
	Exits           uint64
	IdleInstr       uint64
	Offlines        uint64
}

// procState is the per-processor scheduler state.
type procState struct {
	cur         *Thread
	src         *procSource
	switchLeft  uint64
	quantumUsed uint64
	offline     bool
	// service counts thread instructions this processor executed — the
	// per-CPU service the fairness sweeps ratio (kernel.cpuN.service).
	// Idle instructions and context-switch overhead are not service.
	service uint64
	// idleRes and kernRes remember whether the idle and kernel working
	// sets were resident with local write permission (PrivateHorizon).
	idleRes, kernRes residency
}

// residency caches a working set's HitsLocally answer with the cache
// line generation it was computed at; it holds while that stands still.
type residency struct {
	ws  *trace.WorkingSet
	gen uint64
	ok  bool
}

// check reports whether every line of ws hits locally in c.
func (r *residency) check(c *core.Cache, ws *trace.WorkingSet) bool {
	if g := c.Generation(); r.ws != ws || r.gen != g {
		*r = residency{ws: ws, gen: g, ok: c.HitsLocally(ws.Lines())}
	}
	return r.ok
}

// procSource is the reference source installed on each processor: forced
// references (lock words, kernel data) take priority over the active
// thread's stream; an idle loop runs when no thread is dispatched.
type procSource struct {
	forced []trace.Ref
	fhead  int // forced[fhead:] is pending; the buffer is reused once drained
	active trace.Source
	idle   *trace.WorkingSet
	kern   *trace.WorkingSet // kernel working set, used during switch overhead
	inKern bool
}

// Next implements trace.Source.
func (s *procSource) Next(kind trace.Kind) trace.Ref {
	if s.fhead < len(s.forced) {
		ref := s.forced[s.fhead]
		if s.fhead++; s.fhead == len(s.forced) {
			s.forced, s.fhead = s.forced[:0], 0
		}
		return ref
	}
	if ws := s.workingSet(); ws != nil {
		return ws.Next(kind)
	}
	return s.active.Next(kind)
}

// workingSet returns the kernel working set the source reads once no
// forced reference is pending: the kernel set during switch overhead,
// the idle loop when no thread is dispatched, and nil while the
// thread's own source runs. Next and the private-run hooks
// (PrivateHorizon, PrivateSet) both pick the set here.
func (s *procSource) workingSet() *trace.WorkingSet {
	switch {
	case s.inKern:
		return s.kern
	case s.active == nil:
		return s.idle
	}
	return nil
}

func (s *procSource) force(refs ...trace.Ref) {
	s.forced = append(s.forced, refs...)
}

// Kernel is the Topaz Nub: thread scheduling and synchronization on top of
// a machine.
type Kernel struct {
	m   *machine.Machine
	cfg Config
	rng *sim.Rand

	shared   *trace.SharedRegion
	syncNext mbus.Addr

	spaces  []*AddressSpace
	threads []*Thread
	ready   []*Thread
	procs   []*procState

	// spaceTop is the end of the memory address spaces may use: physical
	// memory's end, or the start of a Reserve.
	spaceTop uint64

	sleepers     []sleeper
	earliestWake sim.Cycle

	// tick is the processors' tick length in cycles and minInstr the
	// fewest ticks any instruction takes, floor(BaseTPI) (PrivateHorizon).
	tick, minInstr sim.Cycle

	stats Stats
	seq   uint32 // payload sequence for forced writes
}

// NewKernel installs a Topaz kernel on the machine: every processor gets
// the kernel's scheduler hook and reference source.
func NewKernel(m *machine.Machine, cfg Config) *Kernel {
	cfg = cfg.withDefaults()
	k := &Kernel{
		m:        m,
		cfg:      cfg,
		rng:      sim.NewRand(cfg.Seed * 6364136223846793005),
		syncNext: kernelBase,
		spaceTop: m.Memory().Bytes(),
	}
	v := m.Config().Variant
	k.tick, k.minInstr = sim.Cycle(v.TickCycles), sim.Cycle(v.BaseTPI)
	k.shared = trace.NewSharedRegion(kernelBase+0x1000, 64)
	for i, p := range m.Processors() {
		idleBase := kernelBase + 0x2000 + mbus.Addr(i)*0x400
		ps := &procState{
			src: &procSource{
				idle: trace.NewWorkingSet(trace.WorkingSetConfig{
					Base: idleBase, Bytes: 0x400, SetLines: 8,
					Seed: cfg.Seed + uint64(i)*13,
				}),
				kern: trace.NewWorkingSet(trace.WorkingSetConfig{
					Base: kernelBase + 0x4000, Bytes: 0x2000, SetLines: 32,
					Seed: cfg.Seed + 1000 + uint64(i),
				}),
			},
		}
		k.procs = append(k.procs, ps)
		proc := i
		p.SetSource(ps.src)
		p.SetInstrHook(func(*cpu.Processor) bool { return k.onInstr(proc) })
	}
	m.SetScheduler(k)
	reg := m.Registry()
	reg.Register("kernel.context_switches", func() uint64 { return k.stats.ContextSwitches })
	reg.Register("kernel.migrations", func() uint64 { return k.stats.Migrations })
	reg.Register("kernel.preemptions", func() uint64 { return k.stats.Preemptions })
	reg.Register("kernel.forks", func() uint64 { return k.stats.Forks })
	reg.Register("kernel.exits", func() uint64 { return k.stats.Exits })
	reg.Register("kernel.idle_instr", func() uint64 { return k.stats.IdleInstr })
	reg.Register("kernel.offlines", func() uint64 { return k.stats.Offlines })
	for i := range k.procs {
		ps := k.procs[i]
		reg.Register(fmt.Sprintf("kernel.cpu%d.service", i), func() uint64 { return ps.service })
	}
	return k
}

// CPUService returns the thread instructions processor proc has executed
// — its accumulated service. The max/min ratio of these across
// processors is the fairness metric the policy sweeps report.
func (k *Kernel) CPUService(proc int) uint64 { return k.procs[proc].service }

// SwitchCost returns the kernel instructions a context switch costs.
func (k *Kernel) SwitchCost() uint64 { return k.cfg.SwitchCost }

// Machine returns the underlying machine.
func (k *Kernel) Machine() *machine.Machine { return k.m }

// Stats returns a snapshot of the kernel counters.
func (k *Kernel) Stats() Stats { return k.stats }

// Threads returns every thread ever created.
func (k *Kernel) Threads() []*Thread { return k.threads }

// Reserve withholds physical memory from base up from address spaces,
// for a device's buffers: NewSpace refuses a space that would reach it.
func (k *Kernel) Reserve(base mbus.Addr) { k.spaceTop = min(k.spaceTop, uint64(base)) }

// FreeSpaces returns how many more address spaces NewSpace can create.
// Fork with a nil space creates one per thread.
func (k *Kernel) FreeSpaces() int {
	next := uint64(spaceBase) + uint64(len(k.spaces))*uint64(spaceBytes)
	if next >= k.spaceTop {
		return 0
	}
	return int((k.spaceTop - next) / uint64(spaceBytes))
}

// NewSpace creates an address space. Ultrix spaces admit a single thread.
func (k *Kernel) NewSpace(name string, ultrix bool) *AddressSpace {
	if k.FreeSpaces() == 0 {
		panic(fmt.Sprintf("topaz: no memory left for address space %q", name))
	}
	id := len(k.spaces)
	base := spaceBase + mbus.Addr(uint32(id)*spaceBytes)
	sp := &AddressSpace{id: id, name: name, ultrix: ultrix, base: base, bytes: spaceBytes}
	k.spaces = append(k.spaces, sp)
	return sp
}

// NewMutex allocates a mutex with its lock word in the kernel region.
func (k *Kernel) NewMutex(name string) *Mutex {
	return &Mutex{name: name, addr: k.allocSyncWord()}
}

// NewCond allocates a condition variable.
func (k *Kernel) NewCond(name string) *CondVar {
	return &CondVar{name: name, addr: k.allocSyncWord()}
}

func (k *Kernel) allocSyncWord() mbus.Addr {
	a := k.syncNext
	k.syncNext += 4
	if k.syncNext >= kernelBase+0x1000 {
		panic("topaz: sync word region exhausted")
	}
	return a
}

// Fork creates a thread in the given address space (nil: a fresh Topaz
// space per thread) and makes it ready.
func (k *Kernel) Fork(prog Program, spec ThreadSpec, space *AddressSpace) *Thread {
	if prog == nil {
		panic("topaz: Fork with nil program")
	}
	if space == nil {
		space = k.NewSpace(fmt.Sprintf("space-%d", len(k.spaces)), false)
	}
	if space.ultrix && space.nthr >= 1 {
		panic(fmt.Sprintf("topaz: Ultrix address space %q supports only one thread", space.name))
	}
	spec = spec.withDefaults()
	// The carved region gives the drifting working set 16x headroom.
	wsBytes := uint32(spec.WorkingSetLines) * 4 * 16
	if wsBytes < 0x4000 {
		wsBytes = 0x4000
	}
	base, err := space.carve(wsBytes)
	if err != nil {
		panic(err)
	}
	t := &Thread{
		id:       len(k.threads),
		spec:     spec,
		prog:     prog,
		state:    Ready,
		proc:     -1,
		lastProc: -1,
		space:    space,
	}
	t.source = newThreadSource(base, wsBytes, spec, k.shared, k.cfg.Seed+uint64(t.id)*271)
	space.nthr++
	k.threads = append(k.threads, t)
	k.ready = append(k.ready, t)
	k.stats.Forks++
	return t
}

// Done reports whether every thread has exited.
func (k *Kernel) Done() bool {
	for _, t := range k.threads {
		if t.state != Done {
			return false
		}
	}
	return len(k.threads) > 0
}

// Stuck reports a deadlock: live threads exist but none is ready,
// running, or due to wake from a Sleep. A thread that waits for a
// device's Notify counts as stuck, so it means nothing on such machines.
func (k *Kernel) Stuck() bool {
	if len(k.sleepers) > 0 {
		return false
	}
	live := false
	for _, t := range k.threads {
		switch t.state {
		case Done:
		case Ready, Running:
			return false
		default:
			live = true
		}
	}
	return live
}

// RunUntilDone runs the machine until all threads exit, a deadlock is
// detected, or maxCycles elapse (machine.Machine.RunUntil), stopping at
// the first cycle either holds. It reports whether all threads finished.
func (k *Kernel) RunUntilDone(maxCycles uint64) bool {
	k.m.RunUntil(func() bool { return k.Done() || k.Stuck() }, maxCycles)
	return k.Done()
}

// Offline removes a processor from scheduling after an uncorrectable
// hardware fault: the current thread (if any) returns to the ready queue
// to run elsewhere, the machine-check latch is cleared, and the CPU is
// halted. Topaz on the real Firefly survived processor loss the same
// way — the remaining processors absorb the load. Offlining the last
// processor strands the ready queue; the simulator allows it (the run
// then deadlocks visibly) rather than pretending a dead CPU can run.
func (k *Kernel) Offline(proc int) {
	ps := k.procs[proc]
	if ps.offline {
		return
	}
	ps.offline = true
	k.stats.Offlines++
	if t := ps.cur; t != nil {
		t.state = Ready
		t.proc = -1
		k.ready = append(k.ready, t)
	}
	ps.cur = nil
	ps.src.active = nil
	if tr := k.m.Tracer(); tr != nil {
		tr.Emit(obs.Event{
			Cycle: uint64(k.m.Clock().Now()),
			Kind:  obs.KindCPUOffline,
			Unit:  int32(proc),
		})
	}
	k.m.Cache(proc).ClearMachineCheck()
	k.m.CPU(proc).Halt()
}

// IsOffline reports whether processor proc has been offlined.
func (k *Kernel) IsOffline(proc int) bool { return k.procs[proc].offline }

// PrivateHorizon implements machine.Scheduler. Every running processor
// must be private until the horizon, in one of two ways:
//
//   - idle with an empty ready queue: its hook only counts an idle
//     instruction and finds nothing to dispatch;
//   - in context-switch overhead with switchLeft ≥ 2: its hook only
//     counts switchLeft down, and stays clear of the boundary that ends
//     the switch for (switchLeft−1)·floor(BaseTPI) ticks from the next
//     boundary, since no instruction is shorter than floor(BaseTPI)
//     ticks.
//
// In both, it must draw from a static working set (idle loop or kernel)
// with no forced reference pending, every line of which is resident in
// its cache with local write permission; it must not be waiting on its
// cache, and no snoop probe may still be in its tag store's window. The
// horizon never passes the earliest sleeper's wake, and a tracer or a
// fault plan refuses outright (their events and draws follow the
// lockstep order). With every processor private, nothing can change the
// ready queue before the horizon: only another processor's thread, a
// sleeper's wake, a device's Notify (devices are quiet for the whole
// window) or a machine check (which needs a fault plan) could.
func (k *Kernel) PrivateHorizon(now sim.Cycle) sim.Cycle {
	if k.m.Tracer() != nil || k.m.Faults() != nil {
		return now
	}
	first := now/k.tick + 1 // the earliest boundary any processor ticks at next
	h := sim.Never
	if len(k.sleepers) > 0 {
		h = k.earliestWake
	}
	for i, ps := range k.procs {
		p := k.m.CPU(i)
		if p.Halted() {
			continue
		}
		src := ps.src
		ws, res := src.workingSet(), &ps.idleRes
		switch {
		case ps.switchLeft > 1 && src.inKern:
			// Capped so the product cannot wrap; a lower horizon is safe.
			left := sim.Cycle(min(ps.switchLeft-1, 1<<32))
			h = min(h, (first+left*k.minInstr)*k.tick)
			res = &ps.kernRes
		case ps.switchLeft == 0 && ps.cur == nil && len(k.ready) == 0:
		default:
			return now
		}
		c := k.m.Cache(i)
		if p.Waiting() || src.fhead < len(src.forced) || c.TagStoreBusyWithin(first*k.tick, int(k.tick)) ||
			!ws.Static() || !res.check(c, ws) {
			return now
		}
	}
	return max(h, now)
}

// PrivateSet implements machine.Scheduler: the set procSource.Next reads
// with no forced reference pending, which PrivateHorizon checked.
func (k *Kernel) PrivateSet(proc int) *trace.WorkingSet {
	return k.procs[proc].src.workingSet()
}

// PrivateDone implements machine.Scheduler: the boundaries crossed are
// idle instructions, or kernel instructions of the context switch.
func (k *Kernel) PrivateDone(proc int, boundaries uint64) {
	if ps := k.procs[proc]; ps.switchLeft > 0 {
		ps.switchLeft -= boundaries
	} else {
		k.stats.IdleInstr += boundaries
	}
}

// onInstr is the per-instruction scheduler hook for processor proc. It
// reports non-local only after advance, whose program code may give a
// device work (DESIGN.md, "Tick only the processors").
func (k *Kernel) onInstr(proc int) (local bool) {
	ps := k.procs[proc]
	if ps.offline {
		return true
	}
	if k.m.Cache(proc).MachineCheck() {
		// An uncorrectable cache fault (tag parity on a dirty line, or a
		// bus access abandoned after retry exhaustion) latched since the
		// last instruction: take the processor out of service.
		k.Offline(proc)
		return true
	}
	if len(k.sleepers) > 0 && k.m.Clock().Now() >= k.earliestWake {
		k.wakeSleepers()
	}
	if ps.switchLeft > 0 {
		ps.switchLeft--
		if ps.switchLeft == 0 {
			ps.src.inKern = false
		}
		return true
	}
	t := ps.cur
	if t == nil {
		k.stats.IdleInstr++
		k.dispatch(proc)
		return true
	}

	t.Instructions++
	ps.quantumUsed++
	ps.service++

	if t.instrLeft > 0 {
		t.instrLeft--
		if t.instrLeft > 0 {
			k.maybePreempt(proc)
			return true
		}
	}

	// Current compute budget exhausted: process the next action.
	k.advance(proc, t)
	if ps.cur != nil {
		k.maybePreempt(proc)
	}
	return false
}

func (k *Kernel) maybePreempt(proc int) {
	ps := k.procs[proc]
	if ps.quantumUsed < k.cfg.Quantum || len(k.ready) == 0 {
		return
	}
	t := ps.cur
	k.stats.Preemptions++
	if tr := k.m.Tracer(); tr != nil {
		tr.Emit(obs.Event{
			Cycle: uint64(k.m.Clock().Now()),
			Kind:  obs.KindSchedPreempt,
			Unit:  int32(proc),
			A:     uint64(t.id),
			Label: t.spec.Name,
		})
	}
	t.state = Ready
	t.proc = -1
	k.ready = append(k.ready, t)
	ps.cur = nil
	ps.src.active = nil
	k.dispatch(proc)
}

// dispatch asks the configured DispatchPolicy to select a ready thread
// for the processor and installs it.
func (k *Kernel) dispatch(proc int) {
	if len(k.ready) == 0 {
		return
	}
	pick := k.cfg.Dispatch.Pick(k, proc, k.ready)
	if pick < 0 || pick >= len(k.ready) {
		pick = 0
	}
	t := k.ready[pick]
	k.ready = append(k.ready[:pick], k.ready[pick+1:]...)

	tr := k.m.Tracer()
	if tr != nil && pick > 0 && (t.lastProc == proc || t.lastProc == -1) {
		// The policy passed over older ready threads to keep this one on
		// the processor whose cache still holds its working set.
		tr.Emit(obs.Event{
			Cycle: uint64(k.m.Clock().Now()),
			Kind:  obs.KindSchedMigrateAvoided,
			Unit:  int32(proc),
			A:     uint64(t.id),
			Label: t.spec.Name,
		})
	}
	ps := k.procs[proc]
	t.state = Running
	t.proc = proc
	t.Switches++
	if t.lastProc >= 0 && t.lastProc != proc {
		t.Migrations++
		k.stats.Migrations++
		if tr != nil {
			tr.Emit(obs.Event{
				Cycle: uint64(k.m.Clock().Now()),
				Kind:  obs.KindSchedMigrate,
				Unit:  int32(proc),
				A:     uint64(t.id),
				B:     uint64(t.lastProc),
				Label: t.spec.Name,
			})
		}
	}
	t.lastProc = proc
	ps.cur = t
	ps.src.active = t.source
	ps.quantumUsed = 0
	ps.switchLeft = k.cfg.SwitchCost
	ps.src.inKern = k.cfg.SwitchCost > 0
	k.stats.ContextSwitches++
	if tr != nil {
		tr.Emit(obs.Event{
			Cycle: uint64(k.m.Clock().Now()),
			Kind:  obs.KindSchedDispatch,
			Unit:  int32(proc),
			A:     uint64(t.id),
			Label: t.spec.Name,
		})
	}
}

// advance pulls and processes one action from the thread's program.
func (k *Kernel) advance(proc int, t *Thread) {
	a := t.prog.Next(t)
	validateAction(a)
	if a == nil {
		a = Exit{}
	}
	ps := k.procs[proc]
	switch act := a.(type) {
	case Compute:
		if act.Instructions == 0 {
			return // zero-length compute: next instruction pulls again
		}
		t.instrLeft = act.Instructions

	case Call:
		act.Fn()

	case Lock:
		k.forceRMW(ps, act.M.Addr())
		if act.M.owner == nil {
			act.M.owner = t
			act.M.Acquires++
			return
		}
		act.M.Contended++
		act.M.waiters.Push(t)
		k.block(proc, t)

	case Unlock:
		k.forceWrite(ps, act.M.Addr())
		k.unlock(act.M, t)

	case Wait:
		if act.M != nil && act.M.owner != t {
			panic(fmt.Sprintf("topaz: thread %d waits on %q without holding %q",
				t.id, act.CV.name, act.M.name))
		}
		k.forceWrite(ps, act.CV.Addr())
		act.CV.Waits++
		t.wokenFor = act.M
		act.CV.waiters.Push(t)
		if act.M != nil {
			k.unlock(act.M, t)
		}
		k.block(proc, t)

	case Signal:
		k.forceWrite(ps, act.CV.Addr())
		k.Notify(act.CV)

	case Broadcast:
		k.forceWrite(ps, act.CV.Addr())
		act.CV.Broadcasts++
		for act.CV.waiters.Len() > 0 {
			k.signalOne(act.CV)
		}

	case Fork:
		nt := k.Fork(act.Prog, act.Spec, t.space)
		if act.Handle != nil {
			act.Handle.T = nt
		}

	case Join:
		if act.Handle.T == nil {
			panic("topaz: Join before the handle's Fork ran")
		}
		target := act.Handle.T
		if target.state == Done {
			return
		}
		target.joiners = append(target.joiners, t)
		k.block(proc, t)

	case Yield:
		t.state = Ready
		t.proc = -1
		k.ready = append(k.ready, t)
		ps.cur = nil
		ps.src.active = nil

	case Sleep:
		wakeAt := k.m.Clock().Now() + sim.Cycle(act.Cycles)
		k.sleepers = append(k.sleepers, sleeper{t: t, wakeAt: wakeAt})
		if len(k.sleepers) == 1 || wakeAt < k.earliestWake {
			k.earliestWake = wakeAt
		}
		k.block(proc, t)

	case Exit:
		t.state = Done
		t.proc = -1
		k.stats.Exits++
		for _, j := range t.joiners {
			k.wake(j)
		}
		t.joiners = nil
		ps.cur = nil
		ps.src.active = nil
	}
}

// unlock releases m held by t, handing ownership to the next waiter.
func (k *Kernel) unlock(m *Mutex, t *Thread) {
	if m.owner != t {
		panic(fmt.Sprintf("topaz: thread %d unlocks %q held by another thread", t.id, m.name))
	}
	if m.waiters.Len() > 0 {
		next := m.waiters.Pop()
		m.owner = next
		m.Acquires++
		k.wake(next)
		return
	}
	m.owner = nil
}

// Notify signals cv from device context, as an interrupt handler wakes
// the thread waiting for its device. It touches no condition word, since
// no processor executes it; an idle processor dispatches the woken
// thread at its next instruction boundary. With no waiter it wakes none.
func (k *Kernel) Notify(cv *CondVar) {
	cv.Signals++
	k.signalOne(cv)
}

// signalOne moves one condition waiter toward reacquiring its mutex, if
// it waited with one.
func (k *Kernel) signalOne(cv *CondVar) {
	if cv.waiters.Len() == 0 {
		return
	}
	w := cv.waiters.Pop()
	m := w.wokenFor
	w.wokenFor = nil
	if m == nil {
		k.wake(w)
		return
	}
	if m.owner == nil {
		m.owner = w
		m.Acquires++
		k.wake(w)
		return
	}
	m.waiters.Push(w)
}

// wakeSleepers readies every sleeper whose time has come and recomputes
// the next wake point.
func (k *Kernel) wakeSleepers() {
	now := k.m.Clock().Now()
	kept := k.sleepers[:0]
	var earliest sim.Cycle
	for _, s := range k.sleepers {
		if now >= s.wakeAt {
			k.wake(s.t)
			continue
		}
		if len(kept) == 0 || s.wakeAt < earliest {
			earliest = s.wakeAt
		}
		kept = append(kept, s)
	}
	k.sleepers = kept
	k.earliestWake = earliest
}

func (k *Kernel) wake(t *Thread) {
	t.state = Ready
	k.ready = append(k.ready, t)
}

func (k *Kernel) block(proc int, t *Thread) {
	t.state = Blocked
	t.proc = -1
	ps := k.procs[proc]
	ps.cur = nil
	ps.src.active = nil
}

// forceRMW injects the interlocked read-modify-write of a lock
// acquisition.
func (k *Kernel) forceRMW(ps *procState, addr mbus.Addr) {
	k.seq++
	ps.src.force(
		trace.Ref{Kind: trace.DataRead, Addr: addr},
		trace.Ref{Kind: trace.DataWrite, Addr: addr, Data: k.seq},
	)
}

// forceWrite injects a single synchronization-word write.
func (k *Kernel) forceWrite(ps *procState, addr mbus.Addr) {
	k.seq++
	ps.src.force(trace.Ref{Kind: trace.DataWrite, Addr: addr, Data: k.seq})
}
