// Protocol bake-off: run the Firefly protocol against the baselines the
// paper discusses (write-through invalidate, Berkeley ownership, Dragon
// update, MESI) on identical machines over a sharing sweep, and show the
// producer/consumer pattern where update protocols shine.
package main

import (
	"fmt"
	"log"

	"firefly"
	"firefly/internal/core"
	"firefly/internal/machine"
)

func main() {
	fmt.Println("Coherence protocols on a 4-CPU Firefly, sharing sweep")
	fmt.Printf("%-26s", "protocol")
	shares := []float64{0, 0.1, 0.2, 0.4}
	for _, s := range shares {
		fmt.Printf("  S=%.1f        ", s)
	}
	fmt.Println()

	for _, proto := range firefly.Protocols() {
		fmt.Printf("%-26s", proto.Name())
		for _, s := range shares {
			cfg := machine.MicroVAXConfig(4)
			cfg.Protocol = proto
			m := machine.New(cfg)
			m.AttachSyntheticLoad(firefly.SyntheticLoad{MissRate: 0.15, ShareFraction: s, SharedReadFraction: s})
			m.Warmup(100_000)
			m.RunSeconds(0.01)
			rep := m.Report()
			fmt.Printf("  %4.0fK @ L=%.2f", rep.MeanCPU().Total/1000, rep.BusLoad)
		}
		fmt.Println()
	}

	fmt.Println("\nProducer/consumer ping-pong (50 handoffs of one hot line):")
	fmt.Printf("%-26s %s\n", "protocol", "consumer re-misses")
	for _, proto := range firefly.Protocols() {
		cfg := machine.MicroVAXConfig(2)
		cfg.Protocol = proto
		m := machine.New(cfg)
		for _, p := range m.Processors() {
			p.Halt() // drive the caches directly
		}
		drive := func(ci int, acc core.Access) {
			c := m.Cache(ci)
			if c.Submit(acc) {
				return
			}
			// Run to the cycle after the bus completion that ends it.
			if !m.RunUntil(func() bool { return !c.AwaitsBus() }, 10_000) {
				log.Fatalf("cache %d access %+v did not complete", ci, acc)
			}
			m.Run(1)
		}
		drive(0, core.Access{Addr: 0x40})
		drive(1, core.Access{Addr: 0x40})
		before := m.Cache(1).Stats().ReadMisses
		for i := 0; i < 50; i++ {
			drive(0, core.Access{Write: true, Addr: 0x40, Data: uint32(i)})
			drive(1, core.Access{Addr: 0x40})
		}
		fmt.Printf("%-26s %d\n", proto.Name(), m.Cache(1).Stats().ReadMisses-before)
	}
	fmt.Println("\nUpdate protocols (firefly, dragon) keep the consumer's copy fresh;")
	fmt.Println("invalidation protocols force a re-miss per handoff — the paper's")
	fmt.Println("case for conditional write-through under true sharing.")
}
