package trace

import (
	"fmt"
	"math"
	"testing"

	"firefly/internal/mbus"
	"firefly/internal/sim"
)

func TestKindString(t *testing.T) {
	if InstrRead.String() != "I" || DataRead.String() != "R" || DataWrite.String() != "W" {
		t.Fatal("kind mnemonics wrong")
	}
	if InstrRead.IsWrite() || DataRead.IsWrite() || !DataWrite.IsWrite() {
		t.Fatal("IsWrite wrong")
	}
}

func TestSharedRegion(t *testing.T) {
	s := NewSharedRegion(0x1003, 4) // base is line-aligned
	if s.Base != 0x1000 {
		t.Fatalf("base = %v", s.Base)
	}
	if s.Slot(0) != 0x1000 || s.Slot(3) != 0x100c || s.Slot(4) != 0x1000 {
		t.Fatal("slot addressing wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("zero-slot region did not panic")
		}
	}()
	NewSharedRegion(0, 0)
}

func TestSyntheticConfigValidate(t *testing.T) {
	good := SyntheticConfig{MissRate: 0.2, PrivateBase: 0x1000, PrivateBytes: 4096}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []SyntheticConfig{
		{MissRate: -1, PrivateBytes: 4096},
		{MissRate: 0.2, ShareFraction: 2, PrivateBytes: 4096},
		{MissRate: 0.2, SharedReadFraction: -0.5, PrivateBytes: 4096},
		{MissRate: 0.2, PartialWriteFraction: 1.5, PrivateBytes: 4096},
		{MissRate: 0.2, PrivateBytes: 16},
		{MissRate: math.NaN(), PrivateBytes: 4096},
		{MissRate: 0.2, ShareFraction: math.NaN(), PrivateBytes: 4096},
		{MissRate: 0.2, SharedReadFraction: math.NaN(), PrivateBytes: 4096},
		{MissRate: 0.2, PartialWriteFraction: math.NaN(), PrivateBytes: 4096},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d validated", i)
		}
	}
}

func TestSyntheticLoadValidate(t *testing.T) {
	for _, good := range []SyntheticLoad{{}, {MissRate: 1, ShareFraction: 1, SharedReadFraction: 1}, {MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.05}} {
		if err := good.Validate(); err != nil {
			t.Errorf("%+v: %v", good, err)
		}
	}
	nan := math.NaN()
	for _, bad := range []SyntheticLoad{
		{MissRate: 2}, {MissRate: -1}, {ShareFraction: 5}, {SharedReadFraction: -0.1},
		{MissRate: nan}, {ShareFraction: nan}, {SharedReadFraction: nan},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v validated", bad)
		}
	}
}

// fakeCache is a Residency with a fixed resident set.
type fakeCache struct {
	resident map[mbus.Addr]bool
	byIdx    []mbus.Addr
}

func (f *fakeCache) Contains(a mbus.Addr) bool { return f.resident[a.Line()] }
func (f *fakeCache) ResidentLine(i int) (mbus.Addr, bool) {
	if i < 0 || i >= len(f.byIdx) {
		return 0, false
	}
	a := f.byIdx[i]
	return a, f.resident[a]
}
func (f *fakeCache) Lines() int { return len(f.byIdx) }

func newFakeCache(addrs ...mbus.Addr) *fakeCache {
	f := &fakeCache{resident: make(map[mbus.Addr]bool)}
	for _, a := range addrs {
		f.resident[a.Line()] = true
		f.byIdx = append(f.byIdx, a.Line())
	}
	return f
}

func TestSyntheticMissRateControl(t *testing.T) {
	shared := NewSharedRegion(0x100000, 8)
	cache := newFakeCache(0x2000, 0x2004, 0x2008, 0x200c)
	g := NewSynthetic(SyntheticConfig{
		MissRate:     0.3,
		PrivateBase:  0x2000,
		PrivateBytes: 1 << 20,
		Seed:         42,
	}, shared, cache)

	const n = 20000
	misses := 0
	for i := 0; i < n; i++ {
		ref := g.Next(DataRead)
		if !cache.Contains(ref.Addr) {
			misses++
		}
	}
	rate := float64(misses) / n
	if rate < 0.28 || rate < 0.25 || rate > 0.35 {
		t.Fatalf("generated miss rate %v, want ~0.3", rate)
	}
}

func TestSyntheticSharing(t *testing.T) {
	shared := NewSharedRegion(0x100000, 4)
	cache := newFakeCache(0x2000)
	g := NewSynthetic(SyntheticConfig{
		MissRate:      0.2,
		ShareFraction: 0.5,
		PrivateBase:   0x2000,
		PrivateBytes:  1 << 16,
		Seed:          7,
	}, shared, cache)
	const n = 10000
	sharedWrites := 0
	for i := 0; i < n; i++ {
		ref := g.Next(DataWrite)
		if ref.Addr >= shared.Base && ref.Addr < shared.Base+mbus.Addr(shared.Slots*4) {
			sharedWrites++
		}
		if ref.Data == 0 {
			t.Fatal("write ref without payload")
		}
	}
	frac := float64(sharedWrites) / n
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("shared-write fraction %v, want ~0.5", frac)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	mk := func() *Synthetic {
		return NewSynthetic(SyntheticConfig{
			MissRate: 0.2, ShareFraction: 0.1, SharedReadFraction: 0.1,
			PrivateBase: 0x2000, PrivateBytes: 1 << 16, Seed: 5,
		}, NewSharedRegion(0x100000, 8), newFakeCache(0x2000, 0x2004))
	}
	a, b := mk(), mk()
	kinds := []Kind{InstrRead, DataRead, DataWrite}
	for i := 0; i < 1000; i++ {
		k := kinds[i%3]
		if a.Next(k) != b.Next(k) {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestSyntheticNilCacheStillWorks(t *testing.T) {
	g := NewSynthetic(SyntheticConfig{
		MissRate: 0.2, PrivateBase: 0x2000, PrivateBytes: 4096, Seed: 1,
	}, NewSharedRegion(0x100000, 4), nil)
	for i := 0; i < 100; i++ {
		ref := g.Next(DataRead)
		if ref.Addr < 0x2000 || ref.Addr >= 0x3000 {
			t.Fatalf("address %v outside private region", ref.Addr)
		}
	}
}

func TestWorkingSetLocality(t *testing.T) {
	w := NewWorkingSet(WorkingSetConfig{
		Base: 0x4000, Bytes: 1 << 20,
		SetLines: 8, DriftProb: 0.01, JumpProb: 0, Seed: 3,
	})
	seen := map[mbus.Addr]int{}
	const n = 5000
	for i := 0; i < n; i++ {
		seen[w.Next(DataRead).Addr]++
	}
	// With a slow drift, the footprint must stay far below n distinct
	// addresses: temporal locality.
	if len(seen) > 200 {
		t.Fatalf("footprint %d addresses in %d refs: no locality", len(seen), n)
	}
}

func TestWorkingSetJumpChangesFootprint(t *testing.T) {
	mk := func(jump float64) int {
		w := NewWorkingSet(WorkingSetConfig{
			Base: 0x4000, Bytes: 1 << 22,
			SetLines: 8, DriftProb: 0, JumpProb: jump, Seed: 11,
		})
		seen := map[mbus.Addr]bool{}
		for i := 0; i < 3000; i++ {
			seen[w.Next(DataRead).Addr] = true
		}
		return len(seen)
	}
	stable, jumpy := mk(0), mk(0.05)
	if jumpy <= stable*2 {
		t.Fatalf("jumping did not grow footprint: stable=%d jumpy=%d", stable, jumpy)
	}
}

// TestPickMatchesNext: on a static set, Next is Pick. Twin sets built
// from one config, one read through Pick and the other through Next,
// give field-equal references over 10,000 mixed kinds, and each Next
// moves its generator by exactly the draws Pick makes (the line, and for
// a write the partial-write draw), so it draws nothing for a jump or a
// drift. Afterwards both generators' next draws and write payloads
// agree. With a partial-write fraction of 0.3 the set's partial draw is
// live, near 30% of writes; with 0 no write is partial.
func TestPickMatchesNext(t *testing.T) {
	for _, frac := range []float64{0, 0.3} {
		t.Run(fmt.Sprintf("partial=%v", frac), func(t *testing.T) {
			cfg := WorkingSetConfig{Base: 0x10000, Bytes: 0x400, SetLines: 8, PartialWriteFraction: frac, Seed: 5}
			pick, next := NewWorkingSet(cfg), NewWorkingSet(cfg)
			if !next.Static() {
				t.Fatal("the set is not static")
			}
			kinds := sim.NewRand(11)
			writes, partials := 0, 0
			for i := 0; i < 10_000; i++ {
				kind := Kind(kinds.Intn(3))
				want := *next.rng // replays Pick's draws
				want.Intn(len(next.set))
				if kind == DataWrite && frac > 0 {
					want.Uint64()
				}
				p, n := pick.Pick(kind), next.Next(kind)
				if p != n {
					t.Fatalf("reference %d (%v): Pick %+v, Next %+v", i, kind, p, n)
				}
				if *next.rng != want {
					t.Fatalf("reference %d (%v): Next drew more than Pick's draws", i, kind)
				}
				if kind == DataWrite {
					writes++
					if p.Partial {
						partials++
					}
				}
			}
			a, b := *pick.rng, *next.rng
			for i := 0; i < 3; i++ {
				if x, y := a.Uint64(), b.Uint64(); x != y {
					t.Fatalf("next draw %d: %x after Pick, %x after Next", i, x, y)
				}
			}
			if pick.seq != next.seq {
				t.Fatalf("write payload %d after Pick, %d after Next", pick.seq, next.seq)
			}
			if got := float64(partials) / float64(writes); math.Abs(got-frac) > 0.03 {
				t.Fatalf("%d of %d writes partial (%.3f), want about %v", partials, writes, got, frac)
			}
		})
	}
}

func TestWorkingSetConstructionPanics(t *testing.T) {
	for _, cfg := range []WorkingSetConfig{
		{Base: 0, Bytes: 1024, SetLines: 0},
		{Base: 0, Bytes: 8, SetLines: 100},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			NewWorkingSet(cfg)
		}()
	}
}

func TestFixedSource(t *testing.T) {
	f := &Fixed{Addr: 0x88}
	r1 := f.Next(DataWrite)
	r2 := f.Next(DataWrite)
	if r1.Addr != 0x88 || r2.Addr != 0x88 {
		t.Fatal("fixed address drifted")
	}
	if r1.Data == r2.Data {
		t.Fatal("write payloads must advance")
	}
}
