// Command mbustrace prints the cycle-by-cycle MBus schedule of the
// Figure 4 run (experiments.Figure4Events) — the paper's Figure 4 in text
// form: arbitration and address in cycle 1, write data and tag probes in
// cycle 2, MShared in cycle 3, data in cycle 4. The table is rendered
// from the machine's observability event stream; -raw dumps the
// underlying events instead.
package main

import (
	"flag"
	"fmt"

	"firefly/internal/experiments"
	"firefly/internal/mbus"
)

func main() {
	raw := flag.Bool("raw", false, "dump raw trace events instead of the timing table")
	flag.Parse()

	events := experiments.Figure4Events()
	if *raw {
		for _, e := range events {
			fmt.Printf("cycle %-6d %-22s unit %-2d addr %-10s a=%d b=%d %s\n",
				e.Cycle, e.Kind, e.Unit, mbus.Addr(e.Addr), e.A, e.B, e.Label)
		}
		return
	}
	fmt.Println("MBus timing (100 ns cycles; one operation = 4 cycles):")
	fmt.Println()
	fmt.Print(experiments.RenderBusTiming(events))
}
