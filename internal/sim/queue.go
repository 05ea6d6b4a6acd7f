package sim

// queue is a growable power-of-two FIFO ring of values: the backing
// store of the engine's same-time run queue and of every wait queue and
// mailbox. Popping the front and pushing
// the back reuse one array, so a queue in steady state allocates
// nothing (a slice drained with x = x[1:] and refilled with append
// reallocates each time its shrinking capacity runs out).
type queue[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *queue[T]) len() int { return q.n }

// at returns the i-th element from the front (0 ≤ i < len).
func (q *queue[T]) at(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

func (q *queue[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

func (q *queue[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 4
	}
	buf := make([]T, size)
	for i := 0; i < q.n; i++ {
		buf[i] = *q.at(i)
	}
	q.buf, q.head = buf, 0
}

// pop removes and returns the front element (len must be > 0). The
// vacated slot is zeroed so the ring does not keep its referent alive.
func (q *queue[T]) pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// removeAt deletes the i-th element from the front, keeping the order
// of the rest.
func (q *queue[T]) removeAt(i int) {
	for ; i < q.n-1; i++ {
		*q.at(i) = *q.at(i + 1)
	}
	var zero T
	*q.at(q.n - 1) = zero
	q.n--
}

// removeProc deletes p from a queue of parked processes: a process
// whose deadline fired uses it to leave the queue it was parked on.
func removeProc(q *queue[*Proc], p *Proc) {
	for i := 0; i < q.len(); i++ {
		if *q.at(i) == p {
			q.removeAt(i)
			return
		}
	}
}
