package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random source
// (xorshift64*). The simulator cannot use math/rand's global functions:
// reproducibility across runs and across Go releases is part of the
// experiment harness contract, so we pin the generator algorithm here.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is remapped
// to a fixed non-zero constant because xorshift has a zero fixed point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0. For
// a power of two it masks, which is the same remainder without a divide.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	if n&(n-1) == 0 {
		return int(r.Uint64() & uint64(n-1))
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Chance is a probability p prepared once for Rand.Hit, the simulator's
// one Bernoulli draw. Hit draws and answers exactly as the float test
// Float64() < p, with no floating-point work, and draws nothing for
// p <= 0 (false) or p >= 1 (true); a NaN draws and answers false.
//
// Float64() < p draws m = x>>11, an integer below 2^53, and tests
// float64(m)/2^53 < p. Both sides are exact: m converts without
// rounding and dividing by a power of two is exact, and so is p·2^53,
// which stays below 2^53. For an integer m, m < p·2^53 holds exactly
// when m < ceil(p·2^53), so Hit compares m with that threshold.
type Chance struct {
	t    uint64 // a draw m hits when m < t; with no draw, t != 0 means certain
	draw bool
}

// NewChance prepares probability p.
func NewChance(p float64) Chance {
	switch {
	case p <= 0:
		return Chance{}
	case p >= 1:
		return Chance{t: 1}
	case p != p: // NaN
		return Chance{draw: true}
	}
	return Chance{t: uint64(math.Ceil(p * (1 << 53))), draw: true}
}

// Hit returns true with c's probability (see Chance).
func (r *Rand) Hit(c Chance) bool {
	if !c.draw {
		return c.t != 0
	}
	return r.Uint64()>>11 < c.t
}

// Uint64AsWord narrows a draw to a 32-bit word (payload values).
func (r *Rand) Uint64AsWord() uint32 { return uint32(r.Uint64()) }

// Split derives an independent generator from r, so components can own
// private streams that do not perturb each other when one component
// changes how many numbers it draws.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() | 1)
}
