package experiments

import (
	"fmt"
	"strings"

	"firefly/internal/machine"
	"firefly/internal/stats"
	"firefly/internal/topaz"
	"firefly/internal/workload"
)

// Figure2 instantiates the internal structure of Topaz (the paper's
// Figure 2) as live address spaces on a booted kernel — the Nub in kernel
// mode, with Taos, the debugging servers, Trestle, and the two kinds of
// application address space all running in user mode — and verifies the
// structural rules the paper states (Ultrix spaces are single-threaded;
// Topaz spaces hold many threads).
func Figure2(Options) Outcome {
	m := machine.New(machine.MicroVAXConfig(5))
	k := topaz.NewKernel(m, topaz.Config{})

	idle := func() topaz.Program {
		return topaz.LoopProgram(1<<30, func(int) []topaz.Action {
			return []topaz.Action{topaz.Compute{Instructions: 500}, topaz.Sleep{Cycles: 20_000}}
		})
	}

	taos := k.NewSpace("Taos", false)
	for i := 0; i < 3; i++ {
		k.Fork(idle(), topaz.ThreadSpec{Name: fmt.Sprintf("taos-%d", i)}, taos)
	}
	userTTD := k.NewSpace("UserTTD", false)
	k.Fork(idle(), topaz.ThreadSpec{Name: "ttd"}, userTTD)
	nubTTD := k.NewSpace("NubTTD", false)
	k.Fork(idle(), topaz.ThreadSpec{Name: "nubttd"}, nubTTD)
	trestleSp := k.NewSpace("Trestle", false)
	k.Fork(idle(), topaz.ThreadSpec{Name: "trestle"}, trestleSp)
	topazApp := k.NewSpace("Topaz application", false)
	for i := 0; i < 4; i++ {
		k.Fork(idle(), topaz.ThreadSpec{Name: fmt.Sprintf("app-%d", i)}, topazApp)
	}
	ultrixApp := k.NewSpace("Ultrix application", true)
	k.Fork(idle(), topaz.ThreadSpec{Name: "a.out"}, ultrixApp)

	m.Run(500_000) // everything schedules and runs

	var b strings.Builder
	b.WriteString("Internal structure of Topaz (live on a 5-CPU machine):\n\n")
	b.WriteString("  kernel mode: the Nub — thread scheduling, virtual memory,\n")
	b.WriteString("               device drivers, inter-address-space RPC transport\n")
	b.WriteString("               (internal/topaz.Kernel: the scheduler hooks on every CPU)\n")
	b.WriteString("  user mode address spaces:\n")
	for _, sp := range []*topaz.AddressSpace{taos, userTTD, nubTTD, trestleSp, topazApp, ultrixApp} {
		kind := "Topaz"
		if sp.Ultrix() {
			kind = "Ultrix"
		}
		fmt.Fprintf(&b, "    %-20s %d thread(s), %s rules\n", sp.Name(), sp.Threads(), kind)
	}
	running := 0
	for _, t := range k.Threads() {
		if t.Instructions > 0 {
			running++
		}
	}
	fmt.Fprintf(&b, "\n%d of %d threads have executed instructions; ", running, len(k.Threads()))
	fmt.Fprintf(&b, "single-thread rule on Ultrix spaces enforced (a second Fork panics, tested in internal/topaz).\n")
	ultrixOK := ultrixApp.Threads() == 1
	multiOK := taos.Threads() == 3 && topazApp.Threads() == 4
	fmt.Fprintf(&b, "structure checks: ultrix-single=%v topaz-multi=%v all-running=%v\n",
		ultrixOK, multiOK, running == len(k.Threads()))
	if !ultrixOK || !multiOK || running != len(k.Threads()) {
		b.WriteString("[FAIL] structure rules violated\n")
	}
	return Outcome{ID: "figure2", Title: "Internal Structure of Topaz", Text: b.String()}
}

// SyscallEmulation measures the Ultrix emulation cost (§6, footnote 5):
// "Ultrix system calls are emulated, and are therefore somewhat slower in
// Topaz than they would have been had we simply ported Ultrix. Most of
// the speed difference in simple system calls is due to the context
// switch necessary because Taos runs as a user mode address space.
// Longer-running system services do not suffer as much from this effect."
func SyscallEmulation(o Options) Outcome {
	calls := int(o.Budget.cycles(60, 300))
	maxCycles := o.Budget.cycles(400_000_000, 4_000_000_000)

	run := func(service uint64, emulated bool) workload.SyscallResult {
		m := machine.New(machine.MicroVAXConfig(1))
		k := topaz.NewKernel(m, topaz.Config{Quantum: 2000})
		return workload.RunSyscalls(k, workload.SyscallConfig{
			Calls: calls, ServiceCost: service, Emulated: emulated,
		}, maxCycles)
	}

	simpleNative := run(200, false)
	simpleEmul := run(200, true)
	longNative := run(20_000, false)
	longEmul := run(20_000, true)

	t := stats.NewTable("Ultrix system calls: ported (native) vs Topaz-emulated (via Taos RPC)",
		"service", "native µs/call", "emulated µs/call", "slowdown")
	row := func(label string, n, e workload.SyscallResult) {
		t.AddRow(label,
			fmt.Sprintf("%.1f", n.PerCall*0.1),
			fmt.Sprintf("%.1f", e.PerCall*0.1),
			fmt.Sprintf("%.2fx", e.PerCall/n.PerCall))
	}
	row("simple call", simpleNative, simpleEmul)
	row("long-running service", longNative, longEmul)

	text := t.String() + `
Simple calls pay the two context switches into and out of the user-mode
Taos address space on every trap; long-running services amortize them —
both halves of footnote 5. The paper's compensation is the machine
itself: "the use of parallelism at the lowest levels of the system helps
to compensate for the fact that Ultrix system calls are emulated."
`
	ok := simpleEmul.OK && simpleNative.OK && longEmul.OK && longNative.OK
	if !ok {
		text += "[FAIL] a measurement run did not complete\n"
	}
	return Outcome{ID: "syscall", Title: "Ultrix system-call emulation cost", Text: text}
}
