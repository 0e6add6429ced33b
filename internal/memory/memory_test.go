package memory

import (
	"testing"
	"testing/quick"

	"firefly/internal/mbus"
)

func TestModuleBounds(t *testing.T) {
	m := NewModule(0x100000, 0x1000)
	if !m.Contains(0x100000) || !m.Contains(0x100ffc) {
		t.Fatal("module should contain its range")
	}
	if m.Contains(0x0fffff) || m.Contains(0x101000) {
		t.Fatal("module contains addresses outside its range")
	}
	if m.Base() != 0x100000 || m.Size() != 0x1000 {
		t.Fatalf("base/size = %v/%d", m.Base(), m.Size())
	}
}

func TestModuleBadConstruction(t *testing.T) {
	for _, tc := range []struct {
		base mbus.Addr
		size uint32
	}{
		{0, 0},     // zero size
		{0, 6},     // non-word size
		{2, 0x100}, // misaligned base
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewModule(%v,%d) did not panic", tc.base, tc.size)
				}
			}()
			NewModule(tc.base, tc.size)
		}()
	}
}

func TestSystemReadWrite(t *testing.T) {
	s := NewMicroVAXSystem(4)
	if s.Bytes() != 16<<20 {
		t.Fatalf("bytes = %d, want 16 MB", s.Bytes())
	}
	if ok := s.WriteWord(0x123450, 0xdeadbeef); !ok {
		t.Fatal("write failed")
	}
	w, ok, _ := s.ReadWord(0x123450)
	if !ok || w != 0xdeadbeef {
		t.Fatalf("read = %#x,%v", w, ok)
	}
	// Unwritten storage reads as zero.
	w, ok, _ = s.ReadWord(0x200000)
	if !ok || w != 0 {
		t.Fatalf("unwritten read = %#x,%v, want 0,true", w, ok)
	}
}

func TestSystemUnpopulated(t *testing.T) {
	s := NewMicroVAXSystem(1) // 4 MB only
	if _, ok, _ := s.ReadWord(5 << 20); ok {
		t.Fatal("read beyond populated storage succeeded")
	}
	if ok := s.WriteWord(5<<20, 1); ok {
		t.Fatal("write beyond populated storage succeeded")
	}
}

func TestSystemLineGranularity(t *testing.T) {
	s := NewMicroVAXSystem(1)
	s.WriteWord(0x1002, 42) // unaligned byte address within line 0x1000
	if w, _, _ := s.ReadWord(0x1000); w != 42 {
		t.Fatalf("line aliasing broken: read %d", w)
	}
}

func TestSystemModuleSelection(t *testing.T) {
	s := NewMicroVAXSystem(2)
	s.WriteWord(0x000100, 1)         // module 0
	s.WriteWord(0x400100, 2)         // module 1 (4 MB boundary)
	r0, w0 := s.Module(0).Accesses() //nolint
	r1, w1 := s.Module(1).Accesses()
	if w0 != 1 || w1 != 1 || r0 != 0 || r1 != 0 {
		t.Fatalf("module access counts = %d/%d %d/%d", r0, w0, r1, w1)
	}
	if w, _, _ := s.ReadWord(0x400100); w != 2 {
		t.Fatalf("module 1 word = %d", w)
	}
}

func TestPeekPokeDoNotCount(t *testing.T) {
	s := NewMicroVAXSystem(1)
	s.Poke(0x40, 7)
	if got := s.Peek(0x40); got != 7 {
		t.Fatalf("peek = %d", got)
	}
	r, w := s.Module(0).Accesses()
	if r != 0 || w != 0 {
		t.Fatalf("peek/poke perturbed counters: %d/%d", r, w)
	}
}

func TestPokeOutsidePanics(t *testing.T) {
	s := NewMicroVAXSystem(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Poke outside storage did not panic")
		}
	}()
	s.Poke(64<<20, 1)
}

func TestCVAXCapacity(t *testing.T) {
	s := NewCVAXSystem(4)
	if s.Bytes() != 128<<20 {
		t.Fatalf("CVAX capacity = %d, want 128 MB", s.Bytes())
	}
	if ok := s.WriteWord(127<<20, 9); !ok {
		t.Fatal("high CVAX address not writable")
	}
}

func TestSystemPanicsOnBadCount(t *testing.T) {
	for _, f := range []func(){
		func() { NewMicroVAXSystem(0) },
		func() { NewMicroVAXSystem(5) },
		func() { NewCVAXSystem(0) },
		func() { NewCVAXSystem(5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad module count did not panic")
				}
			}()
			f()
		}()
	}
}

func TestReadBackProperty(t *testing.T) {
	// Property: a write followed by a read of the same line returns the
	// written value, for any in-range address.
	s := NewMicroVAXSystem(4)
	f := func(addr uint32, data uint32) bool {
		a := mbus.Addr(addr % (16 << 20))
		if !s.WriteWord(a, data) {
			return false
		}
		w, ok, _ := s.ReadWord(a)
		return ok && w == data
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDistinctLinesIndependent(t *testing.T) {
	s := NewMicroVAXSystem(1)
	s.WriteWord(0x0, 1)
	s.WriteWord(0x4, 2)
	a, _, _ := s.ReadWord(0x0)
	b, _, _ := s.ReadWord(0x4)
	if a != 1 || b != 2 {
		t.Fatalf("adjacent lines interfere: %d %d", a, b)
	}
}
