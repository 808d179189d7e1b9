package sim

// fifo is a first-in, first-out queue that keeps its backing array.
// pop clears the slot it vacates, so a drained queue pins nothing it
// held, and an emptied queue starts again at the front of its array,
// so a queue that drains between uses never reallocates. Channel
// buffers, channel wait queues and resource queues are fifos.
type fifo[T any] struct {
	s    []T // s[head:] is the queue, oldest first
	head int
}

// len reports the number of queued items.
func (q *fifo[T]) len() int { return len(q.s) - q.head }

// items returns the queued items, oldest first. The slice is valid
// until the next push or remove.
func (q *fifo[T]) items() []T { return q.s[q.head:] }

// front returns the oldest item; the queue must not be empty.
func (q *fifo[T]) front() T { return q.s[q.head] }

// push appends v. A full array whose front half or more was vacated by
// pops is compacted in place instead of grown.
func (q *fifo[T]) push(v T) {
	if len(q.s) == cap(q.s) && q.head > 0 && 2*q.head >= len(q.s) {
		n := copy(q.s, q.s[q.head:])
		clear(q.s[n:])
		q.s, q.head = q.s[:n], 0
	}
	q.s = append(q.s, v)
}

// pop removes and returns the oldest item; the queue must not be
// empty.
func (q *fifo[T]) pop() T {
	v := q.s[q.head]
	var zero T
	q.s[q.head] = zero
	q.head++
	if q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
	return v
}

// remove deletes the i-th queued item (0 is the oldest), keeping the
// others in order.
func (q *fifo[T]) remove(i int) {
	i += q.head
	copy(q.s[i:], q.s[i+1:])
	var zero T
	q.s[len(q.s)-1] = zero
	q.s = q.s[:len(q.s)-1]
	if q.head == len(q.s) {
		q.s, q.head = q.s[:0], 0
	}
}
