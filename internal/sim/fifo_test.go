package sim

import "testing"

// TestFIFOMatchesSlice drives a FIFO and a plain slice queue with the
// same random pushes and pops, many of them across the ring's
// wraparound and through its growth, and demands the same elements in
// the same order. Every slot outside the live range must be zero: a
// popped element keeps nothing reachable.
func TestFIFOMatchesSlice(t *testing.T) {
	r := NewRand(7)
	for trial := 0; trial < 200; trial++ {
		var q FIFO[*int]
		var ref []*int
		pushBias := 2 + r.Intn(8) // out of 10: drift up, hover or drain
		for step := 0; step < 400; step++ {
			if len(ref) == 0 || r.Intn(10) < pushBias {
				v := new(int)
				*v = step
				q.Push(v)
				ref = append(ref, v)
			} else {
				got, want := q.Pop(), ref[0]
				ref = ref[1:]
				if got != want {
					t.Fatalf("trial %d step %d: popped %d, want %d", trial, step, *got, *want)
				}
			}
			if q.Len() != len(ref) {
				t.Fatalf("trial %d step %d: Len %d, want %d", trial, step, q.Len(), len(ref))
			}
			if len(ref) > 0 && *q.Front() != ref[0] {
				t.Fatalf("trial %d step %d: Front %d, want %d", trial, step, *q.Front(), *ref[0])
			}
			for i := range q.buf {
				live := (i-q.head+len(q.buf))&(len(q.buf)-1) < q.n
				if !live && q.buf[i] != nil {
					t.Fatalf("trial %d step %d: slot %d outside the live range holds %d", trial, step, i, *q.buf[i])
				}
			}
		}
		for len(ref) > 0 {
			if got := q.Pop(); got != ref[0] {
				t.Fatalf("trial %d drain: popped %d, want %d", trial, *got, *ref[0])
			}
			ref = ref[1:]
		}
	}
}

// TestFIFOWarmAllocatesNothing: once a queue has reached its working
// size, pushes and pops reuse the ring.
func TestFIFOWarmAllocatesNothing(t *testing.T) {
	var q FIFO[int]
	for i := 0; i < 5; i++ {
		q.Push(i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 5; i++ {
			q.Push(i)
		}
		q.Pop()
		q.Pop()
		q.Push(9)
		for q.Len() > 0 {
			q.Pop()
		}
	})
	if allocs != 0 {
		t.Fatalf("warm FIFO allocated %.1f times per round", allocs)
	}
}

// TestFIFOEmptyPanics: popping or peeking an empty queue is a bug, not
// a zero value.
func TestFIFOEmptyPanics(t *testing.T) {
	for name, f := range map[string]func(q *FIFO[int]){
		"Pop":   func(q *FIFO[int]) { q.Pop() },
		"Front": func(q *FIFO[int]) { q.Front() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s of an empty FIFO did not panic", name)
				}
			}()
			var q FIFO[int]
			q.Push(1)
			q.Pop()
			f(&q)
		}()
	}
}
