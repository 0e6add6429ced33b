package memory

import (
	"testing"

	"firefly/internal/mbus"
	"firefly/internal/obs"
)

// scriptedECC faults specific read addresses: once correctably, once
// uncorrectably, then clean (errors are transient).
type scriptedECC struct {
	corr map[mbus.Addr]int // remaining correctable strikes
	unc  map[mbus.Addr]int // remaining uncorrectable strikes
}

func (s *scriptedECC) ReadFault(addr mbus.Addr) (bool, bool) {
	if s.unc[addr] > 0 {
		s.unc[addr]--
		return true, true
	}
	if s.corr[addr] > 0 {
		s.corr[addr]--
		return true, false
	}
	return false, false
}

func TestECCCorrectedReadReturnsGoodData(t *testing.T) {
	sys := NewSystem(1, 0x1000)
	sys.Poke(0x10, 42)
	sys.SetECC(&scriptedECC{corr: map[mbus.Addr]int{0x10: 1}})

	data, ok, unc := sys.ReadWord(0x10)
	if !ok || unc {
		t.Fatalf("ok/unc = %v/%v, want true/false", ok, unc)
	}
	if data != 42 {
		t.Fatalf("corrected read returned %d, want 42 (correction must fix the word)", data)
	}
	st := sys.ECCStats()
	if st.Corrected != 1 || st.Uncorrectable != 0 {
		t.Fatalf("corrected/uncorrectable = %d/%d, want 1/0", st.Corrected, st.Uncorrectable)
	}
}

func TestECCUncorrectableReadSurfacesAndIsTransient(t *testing.T) {
	sys := NewSystem(1, 0x1000)
	sys.Poke(0x20, 99)
	sys.SetECC(&scriptedECC{unc: map[mbus.Addr]int{0x20: 1}})

	if _, ok, unc := sys.ReadWord(0x20); !ok || !unc {
		t.Fatalf("ok/unc = %v/%v, want true/true", ok, unc)
	}
	// The strike was transient: the retry reads clean data.
	data, ok, unc := sys.ReadWord(0x20)
	if !ok || unc || data != 99 {
		t.Fatalf("retry after uncorrectable: data/ok/unc = %d/%v/%v, want 99/true/false",
			data, ok, unc)
	}
	st := sys.ECCStats()
	if st.Corrected != 0 || st.Uncorrectable != 1 {
		t.Fatalf("corrected/uncorrectable = %d/%d, want 0/1", st.Corrected, st.Uncorrectable)
	}
}

func TestECCEventsTraced(t *testing.T) {
	sys := NewSystem(1, 0x1000)
	sys.SetECC(&scriptedECC{
		corr: map[mbus.Addr]int{0x40: 1},
		unc:  map[mbus.Addr]int{0x44: 1},
	})
	ring := obs.NewRing(16)
	sys.SetTracer(obs.NewTracer(ring), nil)

	sys.ReadWord(0x40)
	sys.ReadWord(0x44)

	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("ECC events = %d, want 2", len(evs))
	}
	if evs[0].Kind != obs.KindFaultMemECC || evs[0].Addr != 0x40 || evs[0].A != 0 {
		t.Fatalf("corrected event = %+v", evs[0])
	}
	if evs[1].Kind != obs.KindFaultMemECC || evs[1].Addr != 0x44 || evs[1].A != 1 {
		t.Fatalf("uncorrectable event = %+v", evs[1])
	}
}
