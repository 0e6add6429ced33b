package experiments

import (
	"fmt"

	"firefly/internal/check"
	"firefly/internal/core"
	"firefly/internal/stats"
	"firefly/internal/verify"
)

// VerifyProtocols exhaustively verifies the coherence-protocol suite in
// the abstract counter model (internal/verify): every protocol's rule
// table is derived mechanically from its own methods, the reachable
// configuration space is enumerated exactly for small cache counts and
// symbolically for unbounded ones, and the safety invariants are checked
// in every reachable configuration. The deliberately broken protocols
// ride along to show the method has teeth — their rows must read unsafe,
// with a shortest counterexample depth.
func VerifyProtocols(o Options) Outcome {
	t := stats.NewTable(
		fmt.Sprintf("Exhaustive verification: exact k=%v plus symbolic ω", verify.DefaultKs),
		"protocol", "k=4 states", "arcs", "diameter", "ω states", "verdict")
	names := append(verify.ShippedProtocolNames(), check.BrokenProtocolNames()...)
	for _, name := range names {
		r, err := verify.ForProtocol(name)
		if err != nil {
			t.AddRow(name, "error: "+err.Error(), "", "", "", "")
			continue
		}
		k4 := r.Exact[0]
		for _, sp := range r.Exact {
			if sp.K == 4 {
				k4 = sp
			}
		}
		arcs := 0
		for from := core.State(0); from < core.NumStates; from++ {
			for to := core.State(0); to < core.NumStates; to++ {
				if k4.Arcs[from][to] {
					arcs++
				}
			}
		}
		verdict := "safe"
		if ce := r.Counterexample(); ce != nil {
			verdict = fmt.Sprintf("UNSAFE: %s in %d steps (k=%d)", ce.Kind, len(ce.Path), ce.K)
		}
		t.AddRow(name,
			fmt.Sprint(k4.States), fmt.Sprint(arcs),
			fmt.Sprint(k4.Diameter), fmt.Sprint(r.Symbolic.States), verdict)
	}
	return Outcome{
		ID:    "verify",
		Title: "Exhaustive small-model verification of the protocol suite",
		Text:  t.String(),
	}
}
