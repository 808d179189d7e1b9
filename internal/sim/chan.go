package sim

// Chan is a rendezvous channel between simulated processes, in the spirit
// of an Occam channel: a send completes only when a receiver takes the
// value (capacity zero), or immediately into free buffer space when a
// capacity was given. Values are untyped; layers above wrap Chan with
// typed helpers.
type Chan struct {
	k    *Kernel
	name string
	cap  int
	buf  fifo[interface{}]

	sendq fifo[*waiter]
	recvq fifo[*waiter]
}

// waiter is a process's wait-queue record for channel and resource
// blocks. A process blocks on at most one operation at a time, so one
// record per process (embedded in Proc) serves every queue without
// allocating; each blocking site re-initialises the fields it uses. A
// killed process's record may linger in a queue — queues tolerate dead
// entries by checking p.dead — and is never reused, because a dead
// process never blocks again.
type waiter struct {
	p   *Proc
	val interface{} // value being sent, or value received
	ok  bool        // handshake completed
	ch  *Chan       // channel that completed the handshake (for Select)
}

// NewChan creates a channel. capacity 0 gives rendezvous semantics.
func NewChan(k *Kernel, name string, capacity int) *Chan {
	return &Chan{k: k, name: name, cap: capacity}
}

// Name returns the channel's name.
func (c *Chan) Name() string { return c.name }

// Len reports the number of buffered values.
func (c *Chan) Len() int { return c.buf.len() }

// dropDead removes killed processes from the front of a wait queue.
func dropDead(q *fifo[*waiter]) {
	for q.len() > 0 && q.front().p.dead {
		q.pop()
	}
}

// takeReceiver pops the first receiver still able to accept a value:
// not killed, and not a Select waiter that already completed a handshake
// on another channel this instant (its residual registrations linger
// until the process resumes and cleans them up; handing it a second
// value would overwrite the first).
func (c *Chan) takeReceiver() *waiter {
	for c.recvq.len() > 0 {
		w := c.recvq.pop()
		if w.p.dead || w.ok {
			continue
		}
		return w
	}
	return nil
}

// Send delivers v on the channel, blocking p until a receiver (or buffer
// space) accepts it.
func (c *Chan) Send(p *Proc, v interface{}) {
	if w := c.takeReceiver(); w != nil {
		w.val = v
		w.ok = true
		w.ch = c
		w.p.unpark()
		return
	}
	if c.buf.len() < c.cap {
		c.buf.push(v)
		return
	}
	w := &p.w
	w.val, w.ok, w.ch = v, false, nil
	c.sendq.push(w)
	for !w.ok {
		p.park(c)
	}
	w.val = nil
}

// Recv blocks p until a value is available and returns it.
func (c *Chan) Recv(p *Proc) interface{} {
	if v, ok := c.TryRecv(); ok {
		return v
	}
	w := &p.w
	c.await(w)
	for !w.ok {
		p.park(c)
	}
	v := w.val
	w.val = nil
	return v
}

// await queues w as a receiver on c.
func (c *Chan) await(w *waiter) {
	w.val, w.ok, w.ch = nil, false, nil
	c.recvq.push(w)
}

// push delivers v from kernel context without a sending process: a
// waiting receiver takes it directly, otherwise it lands in the buffer —
// beyond the nominal capacity if need be, since there is no process to
// block. Cross-shard channels use it to materialise staged arrivals at
// their delivery instant.
func (c *Chan) push(v interface{}) {
	if w := c.takeReceiver(); w != nil {
		w.val = v
		w.ok = true
		w.ch = c
		w.p.unpark()
		return
	}
	c.buf.push(v)
}

// TryRecv returns a value if one is immediately available.
func (c *Chan) TryRecv() (interface{}, bool) {
	if c.buf.len() > 0 {
		v := c.buf.pop()
		// A blocked sender can now use the freed slot.
		dropDead(&c.sendq)
		if c.sendq.len() > 0 {
			w := c.sendq.pop()
			c.buf.push(w.val)
			w.ok = true
			w.p.unpark()
		}
		return v, true
	}
	dropDead(&c.sendq)
	if c.sendq.len() > 0 {
		w := c.sendq.pop()
		w.ok = true
		w.p.unpark()
		return w.val, true
	}
	return nil, false
}

// Ready reports whether a Recv would complete without blocking.
func (c *Chan) Ready() bool {
	dropDead(&c.sendq)
	return c.buf.len() > 0 || c.sendq.len() > 0
}

// Select blocks p until one of the channels is ready to receive, then
// receives from it. It returns the index of the chosen channel and the
// value. Channels earlier in the list win ties, mirroring Occam's PRI ALT.
func Select(p *Proc, chans ...*Chan) (int, interface{}) {
	for {
		for i, c := range chans {
			if c.Ready() {
				return i, c.Recv(p)
			}
		}
		// Register as a receiver on every channel; first sender wins.
		w := &p.w
		w.val, w.ok, w.ch = nil, false, nil
		for _, c := range chans {
			c.recvq.push(w)
		}
		p.park(parkSelect)
		// Remove w from all queues (it may have been consumed from one).
		for _, c := range chans {
			for j, x := range c.recvq.items() {
				if x == w {
					c.recvq.remove(j)
					break
				}
			}
		}
		if w.ok {
			for i, c := range chans {
				if c == w.ch {
					v := w.val
					w.val = nil
					return i, v
				}
			}
			v := w.val
			w.val = nil
			return -1, v
		}
		// Spurious wakeup (e.g. killed race): loop and retry.
	}
}
