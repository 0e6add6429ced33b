package sim

// FIFO is a first-in, first-out queue on a ring that reuses its backing
// array. It grows by doubling when full and zeroes each slot it pops, so
// a popped element holds no reference and a queue that has reached its
// working size never allocates again. The zero value is an empty queue.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued elements.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest element. It panics on an empty
// queue.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("sim: Pop of an empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Front returns the oldest element in place, valid until the next Push
// or Pop. It panics on an empty queue.
func (q *FIFO[T]) Front() *T {
	if q.n == 0 {
		panic("sim: Front of an empty FIFO")
	}
	return &q.buf[q.head]
}

// grow doubles the ring, moving the queued elements to its start.
func (q *FIFO[T]) grow() {
	buf := make([]T, max(1, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
