package topaz

import (
	"firefly/internal/mbus"
	"firefly/internal/sim"
)

// Mutex is a Topaz mutual-exclusion variable (the object behind the
// Modula-2+ LOCK statement). Its lock word lives in shared memory, so
// acquire and release generate real coherence traffic on the simulated
// machine — the dominant sharing pattern of the Table 2 exerciser.
type Mutex struct {
	name string
	addr mbus.Addr

	owner   *Thread
	waiters sim.FIFO[*Thread]

	// Acquires counts successful lock acquisitions; Contended counts
	// acquisitions that had to block.
	Acquires  uint64
	Contended uint64
}

// Name returns the mutex label.
func (m *Mutex) Name() string { return m.name }

// Addr returns the lock word's address.
func (m *Mutex) Addr() mbus.Addr { return m.addr }

// Owner returns the holding thread, or nil.
func (m *Mutex) Owner() *Thread { return m.owner }

// QueueLen returns the number of blocked waiters.
func (m *Mutex) QueueLen() int { return m.waiters.Len() }

// CondVar is a Topaz condition variable (Wait/Signal/Broadcast in the
// Threads module), with Mesa semantics: Wait atomically releases the
// associated mutex and reacquires it before returning.
type CondVar struct {
	name string
	addr mbus.Addr

	waiters sim.FIFO[*Thread]

	// Waits and Signals count operations.
	Waits      uint64
	Signals    uint64
	Broadcasts uint64
}

// Name returns the condition variable's label.
func (c *CondVar) Name() string { return c.name }

// Addr returns the condition word's address.
func (c *CondVar) Addr() mbus.Addr { return c.addr }

// QueueLen returns the number of blocked waiters.
func (c *CondVar) QueueLen() int { return c.waiters.Len() }
