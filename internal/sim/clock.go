// Package sim provides the simulation substrate shared by every Firefly
// subsystem: a cycle clock in MBus cycles (100 ns), a deterministic
// pseudo-random source, the FIFO ring that device and kernel queues use,
// and the worker pool that runs independent simulations (sweep points,
// cluster members) concurrently.
package sim

import (
	"fmt"
	"math"
)

// CycleNS is the duration of one MBus cycle in nanoseconds. The Firefly
// MBus runs at 10 MHz: each of the four phases of an MRead or MWrite
// occupies one 100 ns cycle (paper, Figure 4).
const CycleNS = 100

// Cycle counts MBus cycles since simulation start.
type Cycle uint64

// NS returns the simulated time of the cycle in nanoseconds.
func (c Cycle) NS() uint64 { return uint64(c) * CycleNS }

// Seconds returns the simulated time of the cycle in seconds.
func (c Cycle) Seconds() float64 { return float64(c.NS()) * 1e-9 }

// SecondsToCycles converts simulated seconds to the nearest whole number
// of cycles. It rounds rather than truncates: 0.0003 s is 3000 cycles
// even though 0.0003*1e7 lands a hair under 3000 in floating point.
// Negative and NaN durations, and those of 2^63 cycles or more, are the
// caller's to reject.
func SecondsToCycles(s float64) uint64 { return uint64(math.Round(s * 1e9 / CycleNS)) }

// String formats the cycle with its wall-clock equivalent.
func (c Cycle) String() string {
	return fmt.Sprintf("cycle %d (%.3f µs)", uint64(c), float64(c.NS())/1000)
}

// Clock is the global cycle counter for a machine. All components of one
// machine share a single Clock; the machine's run loop is the only writer.
type Clock struct {
	now Cycle
}

// Now returns the current cycle.
func (c *Clock) Now() Cycle { return c.now }

// Tick advances the clock by one cycle and returns the new time.
func (c *Clock) Tick() Cycle {
	c.now++
	return c.now
}

// Advance moves the clock forward by n cycles.
func (c *Clock) Advance(n Cycle) Cycle {
	c.now += n
	return c.now
}

// Never is the NextEvent sentinel: the component will not change state at
// any future cycle without external input (a new request, a delivered
// frame, a resumed processor). Any real event cycle compares smaller.
const Never Cycle = ^Cycle(0)
