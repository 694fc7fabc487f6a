package des

// FIFO is a first-in first-out queue on a ring buffer. A simulator stage
// whose events fire in the order it scheduled them keeps their payloads here
// and drains them from one handler bound at construction, so no event needs
// a closure of its own. Push allocates only when the ring grows; the zero
// value is an empty queue.
type FIFO[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return q.n }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the head. It panics on an empty queue: a bound
// handler fires once per pushed value, so an empty pop is a scheduling bug.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("des: Pop of an empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

func (q *FIFO[T]) grow() {
	size := 2 * len(q.buf)
	if size == 0 {
		size = 8
	}
	buf := make([]T, size)
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
