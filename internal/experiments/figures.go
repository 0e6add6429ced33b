package experiments

import (
	"fmt"
	"strings"

	"firefly/internal/core"
	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/obs"
)

// Figure3 renders the Firefly cache line state diagram as a transition
// table and verifies every arc dynamically through a two-cache machine.
func Figure3(Options) Outcome {
	var b strings.Builder
	b.WriteString("Cache line states (P = processor event, M = bus event):\n\n")
	for _, rec := range core.FireflyTransitionTable() {
		fmt.Fprintf(&b, "  %-10s --%-38s--> %s\n", rec.From, rec.Event, rec.To)
	}
	b.WriteString("\nDynamic walk of every arc on a two-cache machine:\n")

	r := newFigure3Rig()
	steps := []struct {
		desc string
		do   func()
		want core.State
	}{
		{"P0 read miss (¬MShared)", func() { r.read(0, 0x100) }, core.Exclusive},
		{"P0 write hit", func() { r.write(0, 0x100, 1) }, core.Dirty},
		{"P1 read (M read at P0)", func() { r.read(1, 0x100) }, core.Shared},
		{"P0 write hit, write-through (MShared)", func() { r.write(0, 0x100, 2) }, core.Shared},
		{"P1 evicts; P0 write-through (¬MShared)", func() { r.read(1, 0x100+core.MicroVAXLines*4); r.write(0, 0x100, 3) }, core.Exclusive},
		{"P1 write miss (M write at P0)", func() { r.write(1, 0x100, 4) }, core.Shared},
	}
	allOK := true
	for _, s := range steps {
		s.do()
		got := r.m.Cache(0).LineState(0x100)
		mark := "ok  "
		if got != s.want {
			mark = "FAIL"
			allOK = false
		}
		fmt.Fprintf(&b, "  [%s] %-40s -> cache0 %s\n", mark, s.desc, got)
	}
	if allOK {
		b.WriteString("\nEvery Figure 3 arc verified.\n")
	}
	return Outcome{ID: "figure3", Title: "Cache Line States", Text: b.String()}
}

// figure3Rig drives caches directly on a two-CPU machine whose
// processors are halted.
type figure3Rig struct {
	m *machine.Machine
}

func newFigure3Rig() *figure3Rig {
	m := machine.New(machine.MicroVAXConfig(2))
	for _, p := range m.Processors() {
		p.Halt()
	}
	return &figure3Rig{m: m}
}

// drive submits acc to cache i and, if it misses, runs the machine to
// the cycle after the bus completion that ends it.
func (r *figure3Rig) drive(i int, acc core.Access) {
	c := r.m.Cache(i)
	if c.Submit(acc) {
		return
	}
	if !r.m.RunUntil(func() bool { return !c.AwaitsBus() }, 10_000) {
		panic(fmt.Sprintf("experiments: cache %d access %+v did not complete", i, acc))
	}
	r.m.Run(1)
}

func (r *figure3Rig) read(i int, addr mbus.Addr) { r.drive(i, core.Access{Addr: addr}) }
func (r *figure3Rig) write(i int, addr mbus.Addr, data uint32) {
	r.drive(i, core.Access{Write: true, Addr: addr, Data: data})
}

// Figure4Events traces the MBus through an MRead that finds the line in
// another cache and an MWrite (conditional write-through), and returns
// the observability events of the two operations.
func Figure4Events() []obs.Event {
	r := newFigure3Rig()
	// Seed: cache 1 holds the line Dirty (so the MRead is cache-supplied).
	r.write(1, 0x200, 1)
	r.write(1, 0x200, 42)

	ring := obs.NewRing(64)
	r.m.Trace(ring)
	r.read(0, 0x200)     // MRead: MShared asserted, cache 1 supplies
	r.write(0, 0x200, 7) // MWrite: conditional write-through, update
	return ring.Events()
}

// Figure4 renders the four-phase timing of the paper's Figure 4 from
// Figure4Events.
func Figure4(Options) Outcome {
	var b strings.Builder
	b.WriteString("MBus timing (100 ns cycles; one operation = 4 cycles):\n\n")
	b.WriteString(RenderBusTiming(Figure4Events()))
	b.WriteString(`
Phase 1: arbitration, address and operation driven by the winner.
Phase 2: write data (MWrite); all other caches probe their tag stores.
Phase 3: holders assert the wired-OR MShared signal.
Phase 4: read data — from the holding caches when MShared (memory
         inhibited), from the storage modules otherwise.
`)
	return Outcome{ID: "figure4", Title: "MBus Timing", Text: b.String()}
}

// RenderBusTiming reconstructs the per-cycle Figure 4 table from bus
// trace events. Each completed operation occupies four consecutive
// cycles: grant (phase 1) through data (phase 4); the grant and
// completion events pin the span and the MShared event marks phase 3.
func RenderBusTiming(events []obs.Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  %-8s %-6s %-9s %-10s %s\n", "cycle", "phase", "op", "addr", "activity")
	type busOp struct {
		grant  uint64
		port   int32
		op     mbus.OpKind
		addr   mbus.Addr
		shared bool
	}
	var cur *busOp
	flush := func(o *busOp) {
		if o == nil {
			return
		}
		op := o.op
		addr := o.addr.String()
		phase2 := "tag probe in every other cache"
		if op.CarriesData() {
			phase2 = "write data driven; tag probe in every other cache"
		}
		phase3 := "MShared not asserted"
		if o.shared {
			phase3 = "MShared asserted (wired-OR)"
		}
		var phase4 string
		switch {
		case op == mbus.MRead && o.shared:
			phase4 = "data supplied by holding cache (memory inhibited)"
		case op == mbus.MRead:
			phase4 = "data supplied by storage module"
		case o.shared:
			phase4 = "memory and sharing caches take the data"
		default:
			phase4 = "memory takes the data"
		}
		for p, act := range []string{
			fmt.Sprintf("arbitrate+address (port %d wins)", o.port),
			phase2, phase3, phase4,
		} {
			fmt.Fprintf(&b, "  %-8d %-6d %-9s %-10s %s\n", o.grant+uint64(p), p+1, op, addr, act)
		}
	}
	for _, e := range events {
		switch e.Kind {
		case obs.KindBusGrant:
			flush(cur)
			cur = &busOp{grant: e.Cycle, port: e.Unit, op: mbus.OpKind(e.A), addr: mbus.Addr(e.Addr)}
		case obs.KindBusShared:
			if cur != nil {
				cur.shared = true
			}
		case obs.KindBusOp:
			if cur != nil {
				cur.shared = e.B != 0
			}
			flush(cur)
			cur = nil
		}
	}
	flush(cur)
	return b.String()
}
