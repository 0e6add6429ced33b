package check

import (
	"testing"

	"firefly/internal/coherence"
	"firefly/internal/fault"
	"firefly/internal/machine"
	"firefly/internal/qbus"
	"firefly/internal/trace"
)

// TestOracleGreenUnderCorrectableFaults is the fault layer's coherence
// claim: any correctable-fault plan (no uncorrectable ECC fraction)
// leaves the oracle and the invariant walker green across the whole
// protocol suite. Injected bus faults abort before the serialization
// point, ECC-corrected reads return good data, tag-parity recovery
// invalidates only clean lines, and abandoned accesses emit no load or
// store events — so the reference memory never disagrees with the
// machine.
func TestOracleGreenUnderCorrectableFaults(t *testing.T) {
	for _, proto := range coherence.All() {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			cfg := machine.MicroVAXConfig(4)
			cfg.Protocol = proto
			cfg.Seed = 7919
			cfg.Faults = &fault.Config{
				BusParityRate:    2e-3,
				BusTimeoutRate:   1e-3,
				MemSoftErrorRate: 2e-3,
				DMANXMRate:       1e-3,
				DMAStallRate:     1e-3,
				TagParityRate:    2e-3,
			}
			m := machine.New(cfg)
			ck, err := Attach(m)
			if err != nil {
				t.Fatal(err)
			}
			m.AttachSyntheticLoad(trace.SyntheticLoad{
				MissRate: 0.15, ShareFraction: 0.2, SharedReadFraction: 0.6,
			})

			maps := &qbus.MapRegisters{}
			engine := qbus.NewEngine(m.Clock(), m.Bus(), maps, 0)
			m.AddDevice(engine)
			maps.MapRange(0, 0x300000, 1<<20)
			plan := m.Faults()
			engine.SetFaultInjector(plan)
			words := 64
			var refill func(bool)
			refill = func(bool) {
				engine.Submit(&qbus.Transfer{
					Device: "flood", ToMemory: true, QAddr: 0, Words: words,
					Data: make([]uint32, words), OnDone: refill,
				})
			}
			refill(false)

			m.Run(80_000)
			ck.Walk()

			if plan.Stats().Total() == 0 {
				t.Fatal("no faults injected; the test is vacuous")
			}
			if ck.Checked() == 0 {
				t.Fatal("oracle checked nothing")
			}
			if !ck.Ok() {
				t.Fatalf("correctable faults broke coherence: %v (plan injected %d)",
					ck.First(), plan.Stats().Total())
			}
		})
	}
}
