package sim

// Resource is a counted resource with FIFO queuing, used to model shared
// hardware such as a memory port, a bus, or a DMA engine. Acquire blocks
// the calling process until a unit is free; Release returns a unit and
// wakes the head of the queue.
type Resource struct {
	k     *Kernel
	name  string
	total int
	inUse int
	queue fifo[*waiter]

	// Accounting for utilisation reports.
	busy      Duration // integrated units-in-use over time
	lastStamp Time
}

// NewResource creates a resource with the given number of units and
// registers it with the kernel for utilization reporting (Kernel.Stats).
func NewResource(k *Kernel, name string, units int) *Resource {
	if units <= 0 {
		panic("sim: resource needs at least one unit")
	}
	r := &Resource{k: k, name: name, total: units}
	k.resources = append(k.resources, r)
	return r
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// InUse reports the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) stamp() {
	now := r.k.Now()
	r.busy += Duration(int64(now.Sub(r.lastStamp)) * int64(r.inUse))
	r.lastStamp = now
}

// Acquire takes one unit, blocking p until one is free. A waiter killed
// while queued never receives a unit; if the grant and the kill land in
// the same instant, the unwinding panic releases the unit to the next
// live waiter so it cannot leak.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.total {
		r.stamp()
		r.inUse++
		return
	}
	w := &p.w
	w.ok = false
	r.queue.push(w)
	defer func() {
		if v := recover(); v != nil {
			if w.ok {
				r.Release()
			}
			panic(v)
		}
	}()
	for !w.ok {
		p.park(r)
	}
}

// Release returns one unit and hands it to the longest-waiting live
// process, if any.
func (r *Resource) Release() {
	r.stamp()
	r.inUse--
	if r.inUse < 0 {
		panic("sim: release of unheld resource " + r.name)
	}
	for r.queue.len() > 0 {
		w := r.queue.pop()
		if w.p.dead {
			continue
		}
		w.ok = true
		r.inUse++
		w.p.unpark()
		return
	}
}

// Use acquires the resource, holds it for d, and releases it: the common
// pattern for a timed hardware transaction. The release is deferred so
// the unit is returned even if p is killed mid-wait.
func (r *Resource) Use(p *Proc, d Duration) { r.UseFunc(p, d, nil) }

// UseFunc is Use with a grant hook: atGrant runs at the instant the unit
// is acquired, before the hold time elapses. It lets a transaction
// publish its outcome at grant time — e.g. stage a transfer whose
// arrival is computed from the grant instant — while the resource still
// models the occupancy. The release is deferred exactly like Use.
func (r *Resource) UseFunc(p *Proc, d Duration, atGrant func()) {
	r.Acquire(p)
	defer r.Release()
	if atGrant != nil {
		atGrant()
	}
	p.Wait(d)
}

// BusyTime reports the integrated unit-time in use since the start of
// the simulation: holding one of two units for 3 s and then both for
// 1 s integrates to 5 s.
func (r *Resource) BusyTime() Duration {
	r.stamp()
	return r.busy
}

// Utilization reports the time-integrated fraction of units in use since
// the start of the simulation (0..1).
func (r *Resource) Utilization() float64 {
	r.stamp()
	elapsed := Duration(r.k.Now())
	if elapsed == 0 {
		return 0
	}
	return float64(r.busy) / (float64(elapsed) * float64(r.total))
}
