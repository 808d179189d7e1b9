package sim

// event is one future-time queue entry: a kernel callback (fn) or a
// process to resume (proc). Events with equal times fire in the order
// they were scheduled (seq breaks ties), which keeps the simulation
// deterministic. Records are pooled by the kernel (see Kernel.newEvent),
// so steady-state scheduling allocates nothing.
type event struct {
	at   Time
	seq  int64
	fn   func()
	proc *Proc
}

// eventBefore is the queue's total order: time, then scheduling sequence.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is the kernel's event calendar: every future-time event, in
// a binary min-heap ordered by eventBefore. The sift routines are the
// classic container/heap up/down specialised to the concrete element
// type: heap operations are the kernel's hottest path, and the
// interface-based container/heap costs a dynamic dispatch per
// comparison plus an allocation-prone interface{} boxing per push/pop.
//
// One heap is enough because the calendar stays shallow: with the
// same-instant lane in front of it, a shard's pending events peak near a
// hundred at most (41 for a one-module matmul, 52 per shard in a dim-5
// checkpointed recovery, 114 per shard on the 12-cube lattice).
type eventHeap []*event

// hpush appends e and sifts it up. Equivalent to heap.Push.
func (h *eventHeap) hpush(e *event) {
	s := append(*h, e)
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !eventBefore(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

// hpop removes and returns the minimum. Equivalent to heap.Pop.
func (h *eventHeap) hpop() *event {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && eventBefore(s[j2], s[j]) {
			j = j2
		}
		if !eventBefore(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	e := s[n]
	s[n] = nil
	*h = s[:n]
	return e
}
