package workload

import "firefly/internal/topaz"

// SyscallConfig parameterizes the Ultrix system-call emulation study
// (§6, footnote 5): "Most of the speed difference in simple system calls
// is due to the context switch necessary because Taos runs as a user mode
// address space. Longer-running system services do not suffer as much
// from this effect."
type SyscallConfig struct {
	// Calls is the number of system calls to issue (default 100).
	Calls int
	// ServiceCost is the work the call actually performs (default 200
	// for a simple call; thousands for a long-running service).
	ServiceCost uint64
	// Emulated selects the Topaz path: the call crosses into the
	// user-mode Taos address space via the RPC transport, costing a
	// thread handoff each way. Native executes the service inline after
	// the trap, as a ported monolithic Ultrix would.
	Emulated bool
}

func (c SyscallConfig) withDefaults() SyscallConfig {
	if c.Calls == 0 {
		c.Calls = 100
	}
	if c.ServiceCost == 0 {
		c.ServiceCost = 200
	}
	return c
}

// trapCost is the user-side entry/exit cost in instructions: the mode
// switch a native kernel also pays.
const trapCost = 40

// SyscallResult reports a system-call benchmark run.
type SyscallResult struct {
	Calls   int
	Cycles  uint64
	OK      bool
	PerCall float64 // cycles per call
}

// RunSyscalls measures the system-call path. In emulated mode a Taos
// server thread (its own address space, as in Figure 2) serves requests
// through a mutex/condition-variable rendezvous — the inter-address-space
// RPC transport of the Nub — so every call pays two real thread handoffs
// on the simulated machine.
func RunSyscalls(k *topaz.Kernel, cfg SyscallConfig, maxCycles uint64) SyscallResult {
	cfg = cfg.withDefaults()
	res := SyscallResult{Calls: cfg.Calls}
	start := k.Machine().Clock().Now()

	var clientDone bool

	if !cfg.Emulated {
		// Native: trap, service, return — all in the calling thread.
		client := k.Fork(topaz.LoopProgram(cfg.Calls, func(int) []topaz.Action {
			return []topaz.Action{
				topaz.Compute{Instructions: trapCost},
				topaz.Compute{Instructions: cfg.ServiceCost},
				topaz.Compute{Instructions: trapCost},
			}
		}), topaz.ThreadSpec{Name: "ultrix-app"}, k.NewSpace("ultrix-native", true))
		res.OK = runThreadToDone(k, client, maxCycles)
		res.Cycles = uint64(k.Machine().Clock().Now() - start)
		if res.Calls > 0 {
			res.PerCall = float64(res.Cycles) / float64(res.Calls)
		}
		return res
	}

	// Emulated: the Taos server lives in its own (user-mode) address
	// space; calls rendezvous through the Nub's RPC transport.
	mu := k.NewMutex("taos-rpc")
	reqCV := k.NewCond("taos-req")
	respCV := k.NewCond("taos-resp")
	pending := 0
	served := 0

	taosSpace := k.NewSpace("taos", false)
	serverState := 0
	k.Fork(topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch serverState {
		case 0:
			serverState = 1
			return topaz.Lock{M: mu}
		case 1:
			if clientDone && pending == 0 {
				serverState = 4
				return topaz.Unlock{M: mu}
			}
			if pending == 0 {
				return topaz.Wait{CV: reqCV, M: mu}
			}
			pending--
			serverState = 2
			return topaz.Compute{Instructions: cfg.ServiceCost}
		case 2:
			served++
			serverState = 3
			return topaz.Signal{CV: respCV}
		case 3:
			serverState = 0
			return topaz.Unlock{M: mu}
		default:
			return topaz.Exit{}
		}
	}), topaz.ThreadSpec{Name: "taos-server"}, taosSpace)

	clientCalls := 0
	clientState := 0
	myServed := 0
	client := k.Fork(topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		switch clientState {
		case 0:
			if clientCalls >= cfg.Calls {
				clientState = 5
				return topaz.Call{Fn: func() { clientDone = true }}
			}
			clientCalls++
			clientState = 1
			return topaz.Compute{Instructions: trapCost}
		case 1:
			clientState = 2
			return topaz.Lock{M: mu}
		case 2:
			pending++
			myServed = served
			clientState = 3
			return topaz.Signal{CV: reqCV}
		case 3:
			if served == myServed {
				return topaz.Wait{CV: respCV, M: mu}
			}
			clientState = 4
			return topaz.Unlock{M: mu}
		case 4:
			clientState = 0
			return topaz.Compute{Instructions: trapCost}
		default:
			// Nudge the server awake for its shutdown check.
			clientState = 6
			return topaz.Lock{M: mu}
		case 6:
			clientState = 7
			return topaz.Broadcast{CV: reqCV}
		case 7:
			clientState = 8
			return topaz.Unlock{M: mu}
		case 8:
			return topaz.Exit{}
		}
	}), topaz.ThreadSpec{Name: "ultrix-app"}, k.NewSpace("ultrix-emulated", true))

	res.OK = runThreadToDone(k, client, maxCycles)
	res.Cycles = uint64(k.Machine().Clock().Now() - start)
	if res.Calls > 0 {
		res.PerCall = float64(res.Cycles) / float64(res.Calls)
	}
	return res
}

// runThreadToDone runs the machine until the thread exits, the kernel is
// stuck, or maxCycles elapse, and reports whether the thread exited.
func runThreadToDone(k *topaz.Kernel, t *topaz.Thread, maxCycles uint64) bool {
	k.Machine().RunUntil(func() bool { return t.State() == topaz.Done || k.Stuck() }, maxCycles)
	return t.State() == topaz.Done
}
