// Package trace defines memory-reference streams for the processor model:
// the reference record, the Source interface, and the synthetic
// generators that stand in for the paper's (unavailable) DEC internal
// program traces. The parameterized generator reproduces the
// quantities the paper's analysis consumes — miss rate M, dirty fraction
// D, and sharing fraction S — while the working-set generator produces
// organic locality for the workload studies.
package trace

import (
	"fmt"

	"firefly/internal/mbus"
)

// Kind classifies a reference, following the Emer & Clark per-instruction
// breakdown the paper uses (instruction reads, data reads, data writes).
type Kind uint8

const (
	// InstrRead is an instruction-stream read (IR = .95 per instruction).
	InstrRead Kind = iota
	// DataRead is a data read (DR = .78 per instruction).
	DataRead
	// DataWrite is a data write (DW = .40 per instruction).
	DataWrite
)

// String returns the reference-kind mnemonic.
func (k Kind) String() string {
	switch k {
	case InstrRead:
		return "I"
	case DataRead:
		return "R"
	case DataWrite:
		return "W"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsWrite reports whether the reference modifies memory.
func (k Kind) IsWrite() bool { return k == DataWrite }

// Ref is one memory reference.
type Ref struct {
	Kind    Kind
	Addr    mbus.Addr
	Data    uint32 // resulting word for writes
	Partial bool   // sub-longword write (byte or word on the VAX)
}

// Source produces the address stream for a processor. The processor model
// decides reference kinds from the architectural mix and asks the source
// where each reference goes. Implementations must be deterministic.
type Source interface {
	Next(kind Kind) Ref
}

// Residency lets a generator inspect the cache it feeds, so it can
// construct guaranteed hits or guaranteed misses. core.Cache implements
// it. This is a measurement instrument, not a simulation shortcut: the
// paper's model likewise takes the miss rate as a given input rather than
// deriving it from program behaviour.
type Residency interface {
	Contains(addr mbus.Addr) bool
	ResidentLine(idx int) (mbus.Addr, bool)
	Lines() int
}
