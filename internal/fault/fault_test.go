package fault

import (
	"math"
	"strings"
	"testing"

	"firefly/internal/mbus"
	"firefly/internal/sim"
)

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("bus=1e-4,mem=0.001,retries=7,backoff=32,seed=99")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.BusParityRate != 1e-4 || cfg.MemSoftErrorRate != 0.001 {
		t.Fatalf("rates = %+v", cfg)
	}
	if cfg.MaxRetries != 7 || cfg.BackoffCycles != 32 || cfg.Seed != 99 {
		t.Fatalf("policy = %+v", cfg)
	}

	cfg, err = ParseSpec("all=0.01")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []float64{cfg.BusParityRate, cfg.BusTimeoutRate,
		cfg.MemSoftErrorRate, cfg.DMANXMRate, cfg.DMAStallRate, cfg.TagParityRate} {
		if r != 0.01 {
			t.Fatalf("all= did not fan out: %+v", cfg)
		}
	}

	for _, bad := range []string{"bus", "bus=x", "bogus=1", "bus=2", "mem=-0.1", "bus=NaN", "drop=nan", "all=NaN"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
	if _, err := ParseSpec(""); err != nil {
		t.Errorf("empty spec rejected: %v", err)
	}
}

// TestParseSpecErrors: an explicit zero for a retry or timing count is
// bad input, not a request for the default it would silently become, and
// the error names that default.
func TestParseSpecErrors(t *testing.T) {
	for spec, def := range map[string]string{
		"retries=0":              "default 4",
		"backoff=0":              "default 16",
		"hold=0":                 "default 8",
		"bus=1e-3,stallcycles=0": "default 50",
	} {
		_, err := ParseSpec(spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", spec)
		} else if !strings.Contains(err.Error(), def) {
			t.Errorf("ParseSpec(%q) error %q does not name the %s", spec, err, def)
		}
	}
}

func TestZeroRatePlanDrawsNothing(t *testing.T) {
	clock := &sim.Clock{}
	p := NewPlan(Config{}, clock)
	for i := 0; i < 1000; i++ {
		clock.Tick()
		if f, _ := p.OpFault(mbus.MRead, mbus.Addr(i*4)); f != mbus.FaultNone {
			t.Fatal("zero-rate plan faulted a bus op")
		}
		if f, _ := p.ReadFault(mbus.Addr(i * 4)); f {
			t.Fatal("zero-rate plan faulted a memory read")
		}
		if nxm, stall := p.DMAWordFault(mbus.Addr(i * 4)); nxm || stall != 0 {
			t.Fatal("zero-rate plan faulted a DMA word")
		}
		if p.TagFault(mbus.Addr(i * 4)) {
			t.Fatal("zero-rate plan faulted a tag lookup")
		}
	}
	if p.Stats().Total() != 0 {
		t.Fatalf("zero-rate plan counted injections: %d", p.Stats().Total())
	}
}

func TestPlanDeterminism(t *testing.T) {
	draw := func() []mbus.FaultKind {
		clock := &sim.Clock{}
		p := NewPlan(Config{BusParityRate: 0.3, BusTimeoutRate: 0.2, Seed: 5}, clock)
		var out []mbus.FaultKind
		for i := 0; i < 200; i++ {
			clock.Tick()
			f, _ := p.OpFault(mbus.MWrite, mbus.Addr(i*4))
			out = append(out, f)
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d diverged: %v vs %v", i, a[i], b[i])
		}
	}
	faulted := 0
	for _, f := range a {
		if f != mbus.FaultNone {
			faulted++
		}
	}
	if faulted == 0 {
		t.Fatal("high-rate plan injected nothing")
	}
}

func TestPlanStreamsIndependent(t *testing.T) {
	// Enabling one fault class must not perturb another class's draws:
	// each subsystem owns a split stream.
	tagDraws := func(cfg Config) []bool {
		clock := &sim.Clock{}
		p := NewPlan(cfg, clock)
		var out []bool
		for i := 0; i < 300; i++ {
			clock.Tick()
			p.OpFault(mbus.MRead, mbus.Addr(i*4)) // bus stream consumption varies
			out = append(out, p.TagFault(mbus.Addr(i*4)))
		}
		return out
	}
	a := tagDraws(Config{TagParityRate: 0.2, Seed: 3})
	b := tagDraws(Config{TagParityRate: 0.2, BusParityRate: 0.5, Seed: 3})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tag draw %d perturbed by bus rate", i)
		}
	}
}

func TestPlanWindowing(t *testing.T) {
	clock := &sim.Clock{}
	p := NewPlan(Config{
		BusParityRate: 1, StartCycle: 10, EndCycle: 20,
		AddrMin: 0x100, AddrMax: 0x1ff,
	}, clock)
	fault := func(addr mbus.Addr) bool {
		f, _ := p.OpFault(mbus.MRead, addr)
		return f != mbus.FaultNone
	}
	// Before the window: never.
	for i := 0; i < 9; i++ {
		clock.Tick()
		if fault(0x100) {
			t.Fatal("injected before StartCycle")
		}
	}
	clock.Tick() // cycle 10
	if !fault(0x100) {
		t.Fatal("rate-1 plan missed inside the window")
	}
	if fault(0x80) || fault(0x200) {
		t.Fatal("injected outside the address range")
	}
	clock.Advance(11) // cycle 21
	if fault(0x100) {
		t.Fatal("injected after EndCycle")
	}
}

// NaN fails every comparison, so a range check written as "v < 0 ||
// v > 1" lets it through; every rate must reject it.
func TestValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for _, c := range []Config{
		{BusParityRate: nan}, {BusTimeoutRate: nan}, {MemSoftErrorRate: nan},
		{MemUncorrectableFraction: nan}, {DMANXMRate: nan}, {DMAStallRate: nan},
		{TagParityRate: nan}, {NetDropRate: nan},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v validated", c)
		}
	}
}

// An end cycle before the start, or an address maximum below the
// minimum, leaves nothing to inject into: the plan would silently do
// nothing. One-cycle and one-address windows stay valid.
func TestValidateRejectsEmptyWindows(t *testing.T) {
	for _, c := range []Config{
		{BusParityRate: 1e-3, StartCycle: 5, EndCycle: 1},
		{BusParityRate: 1e-3, AddrMin: 0x200, AddrMax: 0x100},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v validated", c)
		}
	}
	for _, spec := range []string{"all=1e-3,start=5,end=1", "all=1e-3,addrmin=0x200,addrmax=0x100"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted an empty window", spec)
		}
	}
	for _, c := range []Config{
		{StartCycle: 5, EndCycle: 5},
		{StartCycle: 5},
		{AddrMin: 0x100, AddrMax: 0x100},
		{AddrMin: 0x100},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
}

// The last retry backs off BackoffCycles<<(MaxRetries-1) cycles. A
// schedule where that reaches 2^63 would wrap the shift to zero or move
// the retry cycle into the past, so the run would have no backoff at all.
// The largest schedules below the bound stay valid, and so do the
// defaults (4 retries of 16 cycles).
func TestValidateRejectsBackoffOverflow(t *testing.T) {
	for _, c := range []Config{
		{BackoffCycles: math.MaxUint64},
		{BackoffCycles: 1 << 60}, // 2^60<<3 = 2^63 with the default 4 retries
		{MaxRetries: 64, BackoffCycles: 1},
		{MaxRetries: 100},
		{MaxRetries: 60}, // 16<<59 = 2^63 with the default backoff
		{MaxRetries: 2, BackoffCycles: 1 << 62},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("%+v validated", c)
		}
	}
	for _, spec := range []string{"backoff=18446744073709551615,all=1e-3", "retries=100,all=1e-3"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted an overflowing backoff", spec)
		}
	}
	for _, c := range []Config{
		{},
		{BackoffCycles: 1<<60 - 1},
		{MaxRetries: 1, BackoffCycles: 1<<63 - 1},
		{MaxRetries: 63, BackoffCycles: 1},
		{MaxRetries: 59},
		{MaxRetries: 2, BackoffCycles: 1<<62 - 1},
	} {
		if err := c.Validate(); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
}

// TestValidateRejectsStallOverflow: a DMA stall of 2^63 cycles or more
// would wrap the engine's stall end into the past, so no stall at all.
func TestValidateRejectsStallOverflow(t *testing.T) {
	for _, n := range []uint64{1 << 63, math.MaxUint64} {
		if err := (Config{DMAStallCycles: n}).Validate(); err == nil {
			t.Errorf("DMA stall of %d cycles validated", n)
		}
	}
	if _, err := ParseSpec("stall=1e-2,stallcycles=18446744073709551615"); err == nil {
		t.Error("ParseSpec accepted an overflowing DMA stall")
	}
	if err := (Config{DMAStallCycles: 1<<63 - 1}).Validate(); err != nil {
		t.Errorf("largest DMA stall below 2^63: %v", err)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid rate did not panic NewPlan")
		}
	}()
	NewPlan(Config{BusParityRate: 2}, &sim.Clock{})
}
