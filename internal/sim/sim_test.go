package sim

import (
	"math"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestCycleNS(t *testing.T) {
	if got := Cycle(1).NS(); got != 100 {
		t.Fatalf("Cycle(1).NS() = %d, want 100", got)
	}
	if got := Cycle(10_000_000).Seconds(); got != 1.0 {
		t.Fatalf("10M cycles = %v s, want 1.0", got)
	}
}

// TestSecondsToCyclesRounds pins the one seconds-to-cycles conversion:
// wall-times that are not exact in floating point round to the nearest
// cycle instead of losing one to truncation.
func TestSecondsToCyclesRounds(t *testing.T) {
	if s := 0.0003; uint64(s*1e7) != 2999 {
		t.Fatal("float truncation no longer loses a cycle; the test needs a new witness")
	}
	for _, tc := range []struct {
		s    float64
		want uint64
	}{{0.0003, 3000}, {150e-9, 2}, {0.02, 200_000}, {0, 0}} {
		if got := SecondsToCycles(tc.s); got != tc.want {
			t.Errorf("SecondsToCycles(%v) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

func TestClockTickAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %v", c.Now())
	}
	c.Tick()
	c.Advance(9)
	if c.Now() != 10 {
		t.Fatalf("clock = %v, want 10", c.Now())
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/1000 times", same)
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck zero stream")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d distinct values in 1000 draws", len(seen))
	}
}

func TestRandIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

// Bool is the float reference for Hit: true with probability p, drawing
// nothing for p <= 0 or p >= 1. TestChanceMatchesBool holds Hit to it.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

func TestRandBoolExtremes(t *testing.T) {
	r := NewRand(1)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestRandBoolFrequency(t *testing.T) {
	r := NewRand(99)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if got < 0.24 || got > 0.26 {
		t.Fatalf("Bool(0.25) frequency = %v", got)
	}
}

// TestIntnPowerOfTwo: Intn, which masks for a power of two, returns
// Uint64() % n for every n up to 2^20, from the same draw.
func TestIntnPowerOfTwo(t *testing.T) {
	a, b := NewRand(11), NewRand(11)
	for n := 1; n <= 1<<20; n++ {
		if got, want := a.Intn(n), int(b.Uint64()%uint64(n)); got != want {
			t.Fatalf("Intn(%d) = %d, Uint64() %% n = %d", n, got, want)
		}
	}
}

// TestChanceMatchesBool: Hit(NewChance(p)) returns what Bool(p) returns,
// from the same draws, leaving the generator in the same state: at the
// edge cases of Bool's short cuts, at random p, and at the p around the
// very draw each generator is about to make, where a threshold one off
// (a floor for the ceiling) would answer differently.
func TestChanceMatchesBool(t *testing.T) {
	check := func(seed uint64, p float64) {
		t.Helper()
		a, b := NewRand(seed), NewRand(seed)
		c := NewChance(p)
		for i := 0; i < 4; i++ {
			got, want := a.Hit(c), b.Bool(p)
			if got != want || a.state != b.state {
				t.Fatalf("seed %d p %v (%x) draw %d: Hit %v state %x, Bool %v state %x",
					seed, p, math.Float64bits(p), i, got, a.state, want, b.state)
			}
		}
	}
	edges := []float64{-1, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64,
		0x1p-53, 0.5, math.Nextafter(1, 0), 1, math.Inf(1), math.NaN()}
	src := NewRand(2024)
	for i := 0; i < 20_000; i++ {
		seed := src.Uint64()
		for _, p := range edges {
			check(seed, p)
		}
		check(seed, src.Float64())
		m := float64(NewRand(seed).Uint64() >> 11) // the next draw's 53 bits
		at := m / (1 << 53)
		for _, p := range []float64{at, math.Nextafter(at, 0), math.Nextafter(at, 1), (m + 0.5) / (1 << 53)} {
			check(seed, p)
		}
	}
}

func TestRandSplitIndependence(t *testing.T) {
	r := NewRand(5)
	a := r.Split()
	b := r.Split()
	if a.Uint64() == b.Uint64() {
		t.Fatal("split streams start identically")
	}
}

func TestRandUniformity(t *testing.T) {
	// Property: Intn(n) is roughly uniform for a few n.
	f := func(seed uint64) bool {
		r := NewRand(seed)
		const n, draws = 8, 8000
		var buckets [n]int
		for i := 0; i < draws; i++ {
			buckets[r.Intn(n)]++
		}
		for _, b := range buckets {
			if b < draws/n/2 || b > draws/n*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestParallelCoversEveryIndexOnce checks the worker pool at in-line and
// concurrent worker counts, including more workers than indices: every
// index runs exactly once, and the in-line pool runs them in order.
func TestParallelCoversEveryIndexOnce(t *testing.T) {
	const n = 100
	for _, workers := range []int{-1, 0, 1, 2, 8, 2 * n} {
		var calls [n]atomic.Int32
		var order []int
		Parallel(workers, n, func(i int) {
			calls[i].Add(1)
			if workers <= 1 {
				order = append(order, i)
			}
		})
		for i := range calls {
			if got := calls[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times, want 1", workers, i, got)
			}
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: in-line pool ran index %d at position %d", workers, v, i)
			}
		}
	}
	Parallel(4, 0, func(int) { t.Fatal("called with n=0") })
}
