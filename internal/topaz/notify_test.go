package topaz

import "testing"

// deviceWaiter is a thread that waits on cv with no mutex, the way a
// thread waits for a device, and logs its id when it enters the wait and
// when it is woken.
func deviceWaiter(cv *CondVar, id int, waited, woke *[]int) Program {
	return Seq(
		Call{Fn: func() { *waited = append(*waited, id) }},
		Wait{CV: cv},
		Call{Fn: func() { *woke = append(*woke, id) }},
	)
}

// TestNotifyWithoutWaiterIsNoop: a Notify with nobody waiting readies no
// thread, forces no reference on any processor, and is not remembered:
// a thread that waits afterwards stays blocked until the next Notify.
func TestNotifyWithoutWaiterIsNoop(t *testing.T) {
	k := newKernel(2, Config{})
	cv := k.NewCond("device")
	k.Notify(cv)
	if len(k.ready) != 0 || cv.QueueLen() != 0 {
		t.Fatalf("Notify with no waiter left ready=%d waiters=%d", len(k.ready), cv.QueueLen())
	}
	for i, ps := range k.procs {
		if ps.src.fhead < len(ps.src.forced) {
			t.Fatalf("Notify forced a reference on cpu%d", i)
		}
	}
	var waited, woke []int
	th := k.Fork(deviceWaiter(cv, 0, &waited, &woke), ThreadSpec{}, nil)
	k.Machine().Run(200_000)
	if th.State() != Blocked || len(woke) != 0 {
		t.Fatalf("waiter state %v woke %v: an earlier Notify released it", th.State(), woke)
	}
	k.Notify(cv)
	if !k.RunUntilDone(1_000_000) {
		t.Fatalf("waiter not released by Notify: state %v", th.State())
	}
}

// TestNotifyWakesInFIFOOrder: each Notify wakes exactly one waiter, the
// one that has waited longest.
func TestNotifyWakesInFIFOOrder(t *testing.T) {
	k := newKernel(1, Config{})
	cv := k.NewCond("device")
	var waited, woke []int
	for id := 0; id < 3; id++ {
		k.Fork(deviceWaiter(cv, id, &waited, &woke), ThreadSpec{}, nil)
	}
	k.Machine().Run(200_000)
	if cv.QueueLen() != 3 {
		t.Fatalf("%d waiters, want 3", cv.QueueLen())
	}
	for n := 1; n <= 3; n++ {
		k.Notify(cv)
		k.Machine().Run(100_000)
		if len(woke) != n {
			t.Fatalf("after %d Notify calls %d threads woke, want %d", n, len(woke), n)
		}
	}
	for i := range waited {
		if woke[i] != waited[i] {
			t.Fatalf("woke in order %v, waited in order %v", woke, waited)
		}
	}
	if cv.Signals != 3 || cv.Waits != 3 {
		t.Fatalf("signals %d waits %d, want 3 and 3", cv.Signals, cv.Waits)
	}
}

// TestValidateWait: Wait needs a condition variable; its mutex may be
// nil, for conditions only device context signals.
func TestValidateWait(t *testing.T) {
	k := newKernel(1, Config{})
	cv, mu := k.NewCond("c"), k.NewMutex("m")
	validateAction(Wait{CV: cv})
	validateAction(Wait{CV: cv, M: mu})
	for _, a := range []Wait{{M: mu}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("validateAction(%+v) did not panic", a)
				}
			}()
			validateAction(a)
		}()
	}
}
