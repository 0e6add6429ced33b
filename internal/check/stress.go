package check

import (
	"fmt"

	"firefly/internal/core"
	"firefly/internal/cpu"
	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/memory"
	"firefly/internal/obs"
	"firefly/internal/sim"
	"firefly/internal/trace"
)

// StressConfig parameterizes a randomized coherence stress run: a small
// machine hammering a small address pool so that sharing, migration,
// write races, and victim evictions all happen constantly.
type StressConfig struct {
	// Protocol names the coherence protocol (ProtocolByName).
	Protocol string
	// CPUs is the processor count (the hardware shipped 1..7).
	CPUs int
	// CacheLines shrinks the caches so the pool forces evictions.
	CacheLines int
	// LineWords is the line size in longwords.
	LineWords int
	// PoolLines is the number of distinct memory lines in the shared
	// pool. Half alias into the same cache sets as the other half, so
	// victim write-backs race with fills.
	PoolLines int
	// Ops is the total number of scheduled references (all CPUs).
	Ops int
	// Seed drives schedule generation and every machine random stream.
	Seed uint64
	// WalkEvery is the invariant-walk cadence in bus operations.
	WalkEvery uint64
	// Ordered serializes the schedule globally: op N+1 is withheld (every
	// CPU reads its private sink) until op N has been issued and a fixed
	// cycle gap has passed, and an op with a Kind constraint additionally
	// waits for its CPU to draw a matching reference kind. The mode exists
	// for concretized model-checker counterexamples (internal/verify),
	// which need a specific global interleaving to reproduce; randomized
	// stress leaves it off and lets the CPUs race.
	Ordered bool
}

func (c StressConfig) withDefaults() StressConfig {
	if c.Protocol == "" {
		c.Protocol = "firefly"
	}
	if c.CPUs == 0 {
		c.CPUs = 4
	}
	if c.CacheLines == 0 {
		c.CacheLines = 16
	}
	if c.LineWords == 0 {
		c.LineWords = 1
	}
	if c.PoolLines == 0 {
		c.PoolLines = 8
	}
	if c.Ops == 0 {
		c.Ops = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.WalkEvery == 0 {
		c.WalkEvery = defaultWalkEvery
	}
	return c
}

// poolBase is where the shared stress pool lives in physical memory.
const poolBase = mbus.Addr(0x8000)

// PoolAddrs returns the word addresses of the shared pool. The second
// half of the pool aliases the first half's cache sets (offset by the
// cache size), so touching both halves evicts lines constantly.
func (c StressConfig) PoolAddrs() []mbus.Addr {
	c = c.withDefaults()
	lineBytes := mbus.Addr(c.LineWords * 4)
	cacheBytes := mbus.Addr(c.CacheLines) * lineBytes
	addrs := make([]mbus.Addr, 0, c.PoolLines*c.LineWords)
	for i := 0; i < c.PoolLines; i++ {
		base := poolBase + mbus.Addr(i/2)*lineBytes
		if i%2 == 1 {
			base += cacheBytes
		}
		for w := 0; w < c.LineWords; w++ {
			addrs = append(addrs, base+mbus.Addr(w*4))
		}
	}
	return addrs
}

// Reference-kind constraints for ordered schedules. A free op (RefAny,
// the randomized-stress default) is consumed by whatever reference the
// CPU's instruction mix draws next; a constrained op waits for a matching
// draw, so a concretized counterexample can force "CPU 2 writes word 0".
const (
	RefAny uint8 = iota
	RefRead
	RefWrite
)

// Op is one scheduled reference: which CPU's stream it belongs to, which
// pool word it touches, and the word written if the reference lands on a
// write. (For RefAny ops the CPU model decides read vs write from its
// instruction mix; the schedule controls where the reference lands.)
type Op struct {
	CPU     uint8
	AddrIdx uint16
	Data    uint32
	Partial bool
	// Kind is the reference-kind constraint (RefAny/RefRead/RefWrite),
	// honoured only in Ordered mode.
	Kind uint8
}

// Schedule is a full stress schedule, in global generation order.
type Schedule []Op

// GenSchedule deterministically generates a schedule from cfg.Seed.
func GenSchedule(cfg StressConfig) Schedule {
	cfg = cfg.withDefaults()
	rng := sim.NewRand(cfg.Seed*0x9e3779b9 + 0x7f4a7c15)
	words := cfg.PoolLines * cfg.LineWords
	sched := make(Schedule, cfg.Ops)
	for i := range sched {
		sched[i] = Op{
			CPU:     uint8(rng.Intn(cfg.CPUs)),
			AddrIdx: uint16(rng.Intn(words)),
			Data:    rng.Uint64AsWord(),
			Partial: rng.Bool(0.1),
		}
	}
	return sched
}

// sequencer serializes an ordered schedule globally: each op carries its
// global schedule index, and a source may only serve op N once ops 0..N-1
// have been issued and a settling gap of bus cycles has passed, so the
// coherence traffic of op N-1 is long finished before op N hits the bus.
type sequencer struct {
	clock   *sim.Clock
	next    int
	gap     sim.Cycle
	readyAt sim.Cycle
}

// orderedGap is the settling window between ordered ops. A single-word
// miss with a dirty victim costs ~20 bus cycles; 64 leaves slack for
// line fills and retried arbitration.
const orderedGap = 64

func (q *sequencer) turn(gi int) bool {
	return q.next == gi && q.clock.Now() >= q.readyAt
}

func (q *sequencer) served() {
	q.next++
	q.readyAt = q.clock.Now() + q.gap
}

// scriptSource feeds one CPU its slice of the schedule. Every reference
// the CPU asks for consumes one scheduled op; when the script runs out the
// source parks the CPU on a private per-CPU sink address so trailing
// references generate no coherence traffic. With a sequencer attached the
// source also parks on the sink while waiting for its turn or for the CPU
// to draw the op's required reference kind.
type scriptSource struct {
	pool []mbus.Addr
	ops  []Op
	gis  []int // global schedule index per op (ordered mode)
	seq  *sequencer
	pos  int
	sink mbus.Addr
}

func kindMatches(want uint8, k trace.Kind) bool {
	switch want {
	case RefRead:
		return k == trace.InstrRead || k == trace.DataRead
	case RefWrite:
		return k == trace.DataWrite
	default:
		return true
	}
}

func (s *scriptSource) Next(k trace.Kind) trace.Ref {
	if s.pos >= len(s.ops) {
		return trace.Ref{Addr: s.sink}
	}
	op := s.ops[s.pos]
	if s.seq != nil {
		if !s.seq.turn(s.gis[s.pos]) || !kindMatches(op.Kind, k) {
			return trace.Ref{Addr: s.sink}
		}
		s.seq.served()
	}
	s.pos++
	return trace.Ref{
		Addr:    s.pool[int(op.AddrIdx)%len(s.pool)],
		Data:    op.Data,
		Partial: op.Partial,
	}
}

func (s *scriptSource) exhausted() bool { return s.pos >= len(s.ops) }

// Result is the outcome of a checked stress run.
type Result struct {
	// Checked is the number of oracle-validated operations.
	Checked uint64
	// Walks is the number of full invariant walks.
	Walks uint64
	// Cycles is the simulated MBus cycle count.
	Cycles uint64
	// Violations are the detected coherence failures (empty on success).
	Violations []Violation
}

// Ok reports whether the run was coherent.
func (r Result) Ok() bool { return len(r.Violations) == 0 }

// Signature identifies the failure mode for shrinking: the first
// violation's kind, or "" for a clean run.
func (r Result) Signature() string {
	if len(r.Violations) == 0 {
		return ""
	}
	return r.Violations[0].Kind
}

// RunOpts are optional hooks for instrumented runs. The zero value is
// RunSchedule's behaviour.
type RunOpts struct {
	// Observer, when non-nil, is attached to the machine's tracer
	// alongside the checker and sees every machine event.
	Observer obs.Observer
	// Quiescent, when non-nil, is called at deterministic points where
	// the bus is idle and every cache has committed its outstanding work
	// (periodically during the run and once after the final drain), so
	// callers can inspect settled cache state.
	Quiescent func(m *machine.Machine)
}

// machineConfig is the stress rig's machine for a defaulted config.
func (c StressConfig) machineConfig(proto core.Protocol) machine.Config {
	return machine.Config{
		Processors:    c.CPUs,
		Variant:       cpu.MicroVAX78032(),
		Protocol:      proto,
		CacheLines:    c.CacheLines,
		LineWords:     c.LineWords,
		MemoryModules: 4,
		ModuleBytes:   memory.MicroVAXModuleBytes,
		Seed:          c.Seed,
	}
}

// validate checks a defaulted config as the rig builds it: a machine
// whose memory holds the pool with its aliasing offset of one cache size,
// and that is valid. The fit comes first because it is the stricter size
// rule. Each factor is bounded before it is multiplied, so an absurd
// geometry can neither overflow nor size an allocation.
func (c StressConfig) validate(proto core.Protocol) error {
	mc := c.machineConfig(proto)
	mem := uint64(mc.MemoryModules) * uint64(mc.ModuleBytes)
	words, lines, pairs := uint64(c.LineWords), uint64(c.CacheLines), (uint64(c.PoolLines)+1)/2
	if words > mem/4 || lines > mem/(4*words) || pairs > mem/(4*words) ||
		uint64(poolBase)+(lines+pairs)*4*words > mem {
		return fmt.Errorf("check: %d pool lines and a %d-line cache of %d-word lines do not fit the rig's %d-byte memory",
			c.PoolLines, c.CacheLines, c.LineWords, mem)
	}
	return mc.Validate()
}

// RunSchedule executes a schedule under full checking and returns the
// result. The run is deterministic: a given (cfg, sched) pair always
// produces the same result.
func RunSchedule(cfg StressConfig, sched Schedule) (Result, error) {
	return RunScheduleOpts(cfg, sched, RunOpts{})
}

// RunScheduleOpts is RunSchedule with instrumentation hooks.
func RunScheduleOpts(cfg StressConfig, sched Schedule, opts RunOpts) (Result, error) {
	cfg = cfg.withDefaults()
	proto, ok := ProtocolByName(cfg.Protocol)
	if !ok {
		return Result{}, fmt.Errorf("check: unknown protocol %q", cfg.Protocol)
	}
	m := machine.New(cfg.machineConfig(proto))
	checker, err := Attach(m)
	if err != nil {
		return Result{}, err
	}
	checker.SetWalkEvery(cfg.WalkEvery)
	if opts.Observer != nil {
		m.Trace(opts.Observer)
	}
	pool := cfg.PoolAddrs()
	checker.Seed(pool)

	perCPU := make([][]Op, cfg.CPUs)
	perCPUGis := make([][]int, cfg.CPUs)
	for gi, op := range sched {
		i := int(op.CPU) % cfg.CPUs
		perCPU[i] = append(perCPU[i], op)
		perCPUGis[i] = append(perCPUGis[i], gi)
	}
	var seq *sequencer
	if cfg.Ordered {
		seq = &sequencer{clock: m.Clock(), gap: orderedGap}
	}
	sources := make([]*scriptSource, cfg.CPUs)
	for i := range sources {
		sources[i] = &scriptSource{
			pool: pool,
			ops:  perCPU[i],
			gis:  perCPUGis[i],
			seq:  seq,
			sink: 0xF00000 + mbus.Addr(i*64),
		}
		m.CPU(i).SetSource(sources[i])
	}

	// A badly broken protocol can trip the bus's own coherence assertion
	// (divergent snoop supplies panic in mbus) before the checker sees a
	// violation; fold that into the result so shrinking and replay treat
	// it like any other failure.
	panicked := run(m, checker, sources, cfg, len(sched), opts)

	res := Result{
		Checked:    checker.Checked(),
		Walks:      checker.Walks(),
		Cycles:     uint64(m.Clock().Now()),
		Violations: checker.Violations(),
	}
	if panicked != nil {
		res.Violations = append(res.Violations, *panicked)
	}
	return res, nil
}

// run steps the machine through the schedule and the drain, converting a
// machine panic into a violation.
func run(m *machine.Machine, checker *Checker, sources []*scriptSource, cfg StressConfig, nOps int, opts RunOpts) (panicked *Violation) {
	defer func() {
		if r := recover(); r != nil {
			panicked = &Violation{
				Kind:   "machine-panic",
				Cycle:  uint64(m.Clock().Now()),
				Detail: fmt.Sprint(r),
			}
		}
	}()
	// Phase 1: run until every CPU has consumed its script (or the
	// checker trips). The cycle bound is generous: the MicroVAX issues a
	// reference every couple of cycles even when every one misses. An
	// ordered run spends the settling gap (and kind-matching sink
	// references) between every op, so its budget scales with the gap.
	maxCycles := uint64(nOps)*64 + 20000
	if cfg.Ordered {
		maxCycles = uint64(nOps)*16*orderedGap + 20000
	}
	running := true
	for cyc := uint64(0); cyc < maxCycles && running; cyc++ {
		m.Step()
		if !checker.Ok() {
			return nil
		}
		if opts.Quiescent != nil && cyc%128 == 127 && drained(m) {
			opts.Quiescent(m)
		}
		running = false
		for _, s := range sources {
			if !s.exhausted() {
				running = true
				break
			}
		}
	}
	// Phase 2: halt the CPUs and drain outstanding cache and bus work to
	// quiescence, then take a final full walk with nothing in flight.
	for i := 0; i < cfg.CPUs; i++ {
		m.CPU(i).Halt()
	}
	for cyc := 0; cyc < 4000 && !drained(m); cyc++ {
		m.Step()
	}
	if opts.Quiescent != nil && drained(m) {
		opts.Quiescent(m)
	}
	checker.Walk()
	return nil
}

func drained(m *machine.Machine) bool {
	if m.Bus().NextEvent(m.Clock().Now()) != sim.Never {
		return false
	}
	for _, c := range m.Caches() {
		if c.Busy() {
			return false
		}
	}
	return true
}

// RunStress generates a schedule from the config and runs it.
func RunStress(cfg StressConfig) (Result, Schedule, error) {
	cfg = cfg.withDefaults()
	sched := GenSchedule(cfg)
	res, err := RunSchedule(cfg, sched)
	return res, sched, err
}
