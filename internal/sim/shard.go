package sim

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
)

// ShardGroup is a conservative parallel discrete-event scheduler: it
// partitions one simulation into shards — each an ordinary Kernel with
// its own event calendar and same-instant lane — and advances them in
// synchronized time windows bounded by the minimum cross-shard latency
// (the lookahead). Within a window every shard executes independently,
// optionally on parallel worker goroutines; events crossing shards are
// staged into per-edge outboxes and merged deterministically at the
// window barrier.
//
// The central contract is determinism by construction: the *logical*
// partition (how many shards, which processes live where, which XChan
// edges exist) fixes the result, and the *physical* worker count only
// fixes how fast the host gets there. A group run with SetWorkers(1)
// and SetWorkers(8) produces byte-identical results and byte-identical
// Stats, because
//
//   - each shard is itself a deterministic serial kernel;
//   - a cross-shard event staged at send time t arrives no earlier than
//     t + latency, and every edge latency is at least the group
//     lookahead L. A window runs events in [T, T+L) where T is the
//     earliest pending instant across shards, so arrivals (≥ T+L) are
//     always beyond the window being executed — no shard can ever see a
//     message from "the past";
//   - staged events are merged at the barrier in a fixed order:
//     ascending timestamp, ties broken by edge registration order and
//     then send order within the edge.
//
// Processes on different shards must not share mutable Go state: the
// XChan edges are the only sanctioned cross-shard interaction. The
// serial kernel's "exactly one process runs at any instant" guarantee
// holds per shard, not across the group.
//
// Run is the simulator's only run loop: Kernel.Run drives a group of
// one kernel through it.
//
// The zero value is not usable; call NewShardGroup.
type ShardGroup struct {
	shards  []*Kernel
	workers int
	edges   int32 // edges registered so far: the next one's index

	// lookahead is the window width: the minimum latency over every
	// registered cross-shard edge. Zero with no such edge means windows
	// are unbounded (the shards cannot interact, so each may run to
	// completion).
	lookahead Duration

	// Deterministic run accounting (see Stats).
	windows    int64
	crossShard int64
	stall      []Duration // per-shard simulated barrier idle time
	staged     []int64    // per-shard cross-shard sends originated

	barrier func() // runs after every window barrier; see SetWindowObserver

	// Pending Global calls, appended by shard processes mid-window and
	// drained by the coordinator at each barrier. globalMu guards the
	// slice (registrations race across worker goroutines); the seq
	// counters are per-shard so the drain order — ascending post time,
	// then shard, then per-shard sequence — is worker-invariant.
	globalMu      sync.Mutex
	globals       []globalCall
	globalSeq     []int64
	globalScratch []globalCall

	// Worker pool state, live only during Run: workers−1 goroutines
	// beside the coordinator, which runs windows too.
	feed    chan windowJob
	results chan windowResult
	pool    sync.WaitGroup // the pool goroutines, so stopPool returns once they exit

	// Scratch buffers reused across windows to keep the barrier
	// allocation-free in steady state.
	activeScratch  []int
	dirtyScratch   []*XChan
	arrivalScratch []arrival
}

// windowJob asks a worker to run one shard up to (exclusive) wEnd.
type windowJob struct {
	shard int
	wEnd  Time
}

// windowResult is one shard's window outcome; panicked carries a
// process-body panic value to re-deliver after group teardown.
type windowResult struct {
	shard    int
	panicked interface{}
}

// NewShardGroup returns a group of n empty shards at time zero.
func NewShardGroup(n int) *ShardGroup {
	if n < 1 {
		panic("sim: shard group needs at least one shard")
	}
	shards := make([]*Kernel, n)
	for i := range shards {
		shards[i] = NewKernel()
	}
	return newShardGroup(shards)
}

// newShardGroup groups existing kernels, which keep their bound
// contexts.
func newShardGroup(shards []*Kernel) *ShardGroup {
	n := len(shards)
	return &ShardGroup{
		shards:    shards,
		workers:   1,
		stall:     make([]Duration, n),
		staged:    make([]int64, n),
		globalSeq: make([]int64, n),
	}
}

// NewShardGroupCtx returns a group bound to ctx: cancellation tears the
// whole simulation down cooperatively — every shard, every process —
// and Err reports why.
func NewShardGroupCtx(ctx context.Context, n int) *ShardGroup {
	g := NewShardGroup(n)
	g.BindContext(ctx)
	return g
}

// BindContext attaches a cancellation context to every shard. Each
// shard's dispatch loop polls it at its own event boundaries, and the
// group checks it at every window barrier. Binding after Run has
// started is not supported.
func (g *ShardGroup) BindContext(ctx context.Context) {
	for _, k := range g.shards {
		k.BindContext(ctx)
	}
}

// Shard returns shard i's kernel. Build each shard's processes,
// channels, and resources against it exactly as for a serial kernel.
func (g *ShardGroup) Shard(i int) *Kernel { return g.shards[i] }

// Shards reports the logical shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// ShardOf reports which shard k is, or -1 when k is not in the group.
func (g *ShardGroup) ShardOf(k *Kernel) int {
	for i, s := range g.shards {
		if s == k {
			return i
		}
	}
	return -1
}

// SetWorkers sets the physical parallelism: how many goroutines execute
// shard windows concurrently. It is clamped to [1, Shards()] and does
// not affect results — only wall-clock speed.
func (g *ShardGroup) SetWorkers(p int) {
	if p < 1 {
		p = 1
	}
	if p > len(g.shards) {
		p = len(g.shards)
	}
	g.workers = p
}

// Workers reports the configured physical parallelism.
func (g *ShardGroup) Workers() int { return g.workers }

// Lookahead reports the effective window width (0 = unbounded).
func (g *ShardGroup) Lookahead() Duration { return g.lookahead }

// SetWindowObserver installs fn to run after every window barrier (nil
// removes it). fn runs on the group's coordinating goroutine while every
// shard is stopped, so it may read any shard's state; it must not block.
func (g *ShardGroup) SetWindowObserver(fn func()) { g.barrier = fn }

// Canceled reports whether the run was torn down by the bound context.
// A cancellation marks every shard, so shard 0 speaks for the group.
func (g *ShardGroup) Canceled() bool { return g.shards[0].Canceled() }

// Err returns nil for a normal run, or the bound context's error when
// the run was canceled mid-flight.
func (g *ShardGroup) Err() error { return g.shards[0].Err() }

// Now reports the latest shard clock: the group's notion of current
// simulated time.
func (g *ShardGroup) Now() Time {
	var now Time
	for _, k := range g.shards {
		if k.now > now {
			now = k.now
		}
	}
	return now
}

// Connect registers a directed cross-shard edge from shard src to shard
// dst with the given minimum delivery latency, which must be positive:
// it is the physical transfer time that makes conservative windows
// possible (a link DMA startup plus wire time, a ring hop). capacity
// sizes the destination-side delivery queue exactly like NewChan.
// src == dst is allowed — the edge degenerates to a local delayed
// channel — so partition-agnostic component code can connect first and
// place later.
func (g *ShardGroup) Connect(src, dst int, name string, latency Duration, capacity int) *XChan {
	// An out-of-range dst leaves the channel without a kernel;
	// ConnectInto rejects the edge before that matters.
	var k *Kernel
	if dst >= 0 && dst < len(g.shards) {
		k = g.shards[dst]
	}
	return g.ConnectInto(src, dst, latency, NewChan(k, name, capacity))
}

// ConnectInto registers a cross-shard edge like Connect, but delivers
// into an existing destination-shard channel instead of creating one:
// staged values surface as ordinary receives on ch, so a component that
// already owns an inbox (a link sublink, a supervisor alarm queue) can
// be fed from another shard without changing its receive path. ch must
// belong to shard dst; the edge goes by its name.
func (g *ShardGroup) ConnectInto(src, dst int, latency Duration, ch *Chan) *XChan {
	if ch == nil {
		panic("sim: xchan needs a delivery channel")
	}
	if src < 0 || src >= len(g.shards) || dst < 0 || dst >= len(g.shards) {
		panic(fmt.Sprintf("sim: xchan %s connects shard %d→%d outside group of %d", ch.name, src, dst, len(g.shards)))
	}
	if latency <= 0 {
		panic("sim: xchan " + ch.name + " needs a positive latency (it is the lookahead)")
	}
	if ch.k != g.shards[dst] {
		panic("sim: xchan " + ch.name + ": delivery channel must belong to the destination shard")
	}
	x := &XChan{g: g, index: g.edges, src: int32(src), dst: int32(dst), latency: latency, inner: ch}
	g.edges++
	if src != dst && (g.lookahead == 0 || latency < g.lookahead) {
		g.lookahead = latency
	}
	return x
}

// globalCall is one registered Global section awaiting barrier
// execution.
type globalCall struct {
	t     Time // post instant (the caller's clock at registration)
	shard int
	seq   int64
	fn    func(at Time)
	wake  *Chan // resumes the requester; nil when it resumes itself
}

// Global suspends p and runs fn at the next window barrier, with every
// shard quiescent: fn executes exactly once, on the group's
// coordinating goroutine, with safe read/write access to all shards'
// state (kernels, processes, channels — anything a serial simulation
// could touch). It is the escape hatch for rare global operations that
// a per-shard decomposition cannot express — a supervisor walking every
// module, a heal rewiring the topology — and it is deliberately
// instantaneous in simulated time: fn receives the barrier instant and
// may schedule timed work on any shard via Kernel.At/Go, but must not
// block.
//
// p resumes at the barrier instant, strictly after fn returned. Barrier
// instants are a pure function of the event timeline, so Global keeps
// the worker-invariance contract: results do not depend on SetWorkers.
// If p is killed before the barrier (for example by the fn of an
// earlier Global in the same batch), fn still runs — a global decision
// must not silently vanish with its requester.
//
// On a single-shard group fn runs inline at p's current instant: there
// are no peers to quiesce, and a barrier may never come.
func (g *ShardGroup) Global(p *Proc, fn func(at Time)) {
	shard := g.ShardOf(p.k)
	if shard < 0 {
		panic("sim: Global from a process outside the group")
	}
	if len(g.shards) == 1 {
		fn(p.k.now)
		return
	}
	wake := NewChan(p.k, "global/wake", 1)
	g.globalMu.Lock()
	g.globalSeq[shard]++
	g.globals = append(g.globals, globalCall{
		t: p.k.now, shard: shard, seq: g.globalSeq[shard], fn: fn, wake: wake,
	})
	g.globalMu.Unlock()
	wake.Recv(p)
}

// runGlobals drains the pending Global calls at a barrier, running each
// fn at instant `at` in the deterministic order (post time, shard,
// per-shard sequence) and scheduling each requester's resume at `at`.
// fns may register further Globals (they run at the next barrier, not
// this one) and may kill requesters of later calls in the batch — the
// batch was fixed when the barrier began.
func (g *ShardGroup) runGlobals(at Time) {
	g.globalMu.Lock()
	batch := g.globals
	g.globals = g.globalScratch[:0]
	g.globalMu.Unlock()
	if len(batch) == 0 {
		g.globalScratch = batch
		return
	}
	slices.SortFunc(batch, func(a, b globalCall) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.shard, b.shard), cmp.Compare(a.seq, b.seq))
	})
	for _, c := range batch {
		c.fn(at)
		if c.wake != nil {
			wake := c.wake
			g.shards[c.shard].atFuture(at, func() { wake.push(struct{}{}) }, nil)
		}
	}
	for i := range batch {
		batch[i] = globalCall{}
	}
	g.globalScratch = batch[:0]
}

// pendingGlobals reports whether any Global call awaits a barrier.
func (g *ShardGroup) pendingGlobals() bool {
	g.globalMu.Lock()
	n := len(g.globals)
	g.globalMu.Unlock()
	return n > 0
}

// nextInstant scans the shards for the earliest pending event.
func (g *ShardGroup) nextInstant() (Time, bool) {
	var min Time
	any := false
	for _, k := range g.shards {
		if t, ok := k.nextEventTime(); ok && (!any || t < min) {
			min, any = t, true
		}
	}
	return min, any
}

// ctxFired reports whether the bound context has been canceled. A nil
// channel (no context bound) never fires.
func (g *ShardGroup) ctxFired() bool {
	select {
	case <-g.shards[0].cancelCh:
		return true
	default:
		return false
	}
}

// cancel marks every shard canceled by its context and tears the group
// down.
func (g *ShardGroup) cancel() {
	for _, k := range g.shards {
		k.ctxCanceled = true
	}
	g.teardownAll()
}

// teardownAll force-unwinds every shard, one at a time on the calling
// goroutine, so no process goroutine outlives an abnormal run.
func (g *ShardGroup) teardownAll() {
	for _, k := range g.shards {
		k.teardown()
	}
}

// Run executes the group until every shard drains, the horizon passes,
// or the bound context fires. A zero horizon means no limit. It returns
// the group clock: the time of the latest executed event, or the
// horizon when events remain beyond it.
//
// Run panics if every queue drains while non-daemon processes are still
// blocked somewhere in the group — with no pending events and no staged
// cross-shard traffic, nothing can ever wake them: a deadlock in the
// simulated system.
//
// Every abnormal exit — that deadlock, a process panic, a panic in a
// kernel callback, a Global fn, the window observer or the barrier
// merge — tears every shard down before the panic propagates, so a
// failed run strands no process goroutine: a long-lived host can
// isolate a panicking job and keep serving.
func (g *ShardGroup) Run(horizon Duration) Time {
	defer func() {
		if r := recover(); r != nil {
			g.teardownAll()
			panic(r)
		}
	}()
	limit := Time(-1)
	if horizon > 0 {
		limit = g.Now().Add(horizon)
	}
	if g.workers > 1 {
		g.startPool()
		defer g.stopPool()
	}
	for {
		if g.ctxFired() {
			g.cancel()
			return g.Now()
		}
		nextT, any := g.nextInstant()
		if !any {
			if g.pendingGlobals() {
				// Every queue is idle but Global sections await their
				// barrier: this IS the barrier. Run them at the group
				// clock; their wake events (and whatever the fns
				// schedule) continue the loop.
				g.advanceClocks(g.Now())
				g.runGlobals(g.Now())
				continue
			}
			procs := 0
			for _, k := range g.shards {
				procs += k.procs
			}
			if procs > 0 {
				panicDeadlock(g.Now(), procs)
			}
			return g.Now()
		}
		if limit >= 0 && nextT > limit {
			// Events remain beyond the horizon: advance every clock to it.
			g.advanceClocks(limit)
			return limit
		}
		// Window end: exclusive. With no cross-shard edges the shards
		// cannot interact, so the window is unbounded (or horizon-bound).
		wEnd := maxTime
		if g.lookahead > 0 {
			wEnd = nextT.Add(g.lookahead)
		}
		if limit >= 0 && wEnd > limit+1 {
			wEnd = limit + 1 // events at exactly the horizon still run
		}
		if !g.runShardWindows(wEnd) {
			return g.Now() // canceled or panicked (panic re-raised there)
		}
		g.windows++
		g.mergeStaged()
		if g.pendingGlobals() {
			at := wEnd
			if at == maxTime {
				at = g.Now()
			}
			// A Global fn may spawn processes on any shard, and a spawn
			// begins at its kernel's own clock. An idle shard's clock
			// trails the group (it only advances by executing events), so
			// bring every shard to the barrier instant first — otherwise
			// work spawned there would run in the group's past and its
			// staged sends would break the lookahead bound. Safe because
			// every event before the window end has already executed.
			g.advanceClocks(at)
			g.runGlobals(at)
		}
		if g.barrier != nil {
			g.barrier()
		}
	}
}

// maxTime is the unbounded window end.
const maxTime = Time(1<<63 - 1)

// advanceClocks brings every shard clock up to t (never backward).
func (g *ShardGroup) advanceClocks(t Time) {
	for _, k := range g.shards {
		if k.now < t {
			k.now = t
		}
	}
}

// runShardWindows executes one window on every shard that has work due
// before wEnd, in parallel when workers allow, and accounts barrier
// stall. It returns false when the run must stop (context cancellation
// observed by a shard); a process panic is re-raised once every shard
// has finished its window, for Run to tear the group down. With several
// active shards and workers, the pool takes every active shard but the
// first; the coordinator runs that one, then any job no pool goroutine
// has taken yet, and only then waits for results. Whoever runs a shard,
// the lowest panicking shard's value wins.
func (g *ShardGroup) runShardWindows(wEnd Time) bool {
	active := g.activeShards(wEnd)
	var panicked interface{}
	panicShard := -1
	note := func(shard int, r interface{}) {
		if r != nil && (panicShard < 0 || shard < panicShard) {
			panicked, panicShard = r, shard
		}
	}
	if g.workers > 1 && len(active) > 1 {
		for _, i := range active[1:] {
			g.feed <- windowJob{shard: i, wEnd: wEnd}
		}
		note(active[0], g.shards[active[0]].runWindow(wEnd))
		pending := len(active) - 1
	queued:
		for pending > 0 {
			select {
			case job := <-g.feed:
				note(job.shard, g.shards[job.shard].runWindow(job.wEnd))
				pending--
			default:
				break queued
			}
		}
		for ; pending > 0; pending-- {
			r := <-g.results
			note(r.shard, r.panicked)
		}
	} else {
		for _, i := range active {
			note(i, g.shards[i].runWindow(wEnd))
		}
	}
	if panicked != nil {
		panic(panicked)
	}
	for _, i := range active {
		k := g.shards[i]
		if k.ctxCanceled {
			g.cancel()
			return false
		}
		if wEnd != maxTime && k.now < wEnd {
			g.stall[i] += Duration(wEnd.Sub(k.now))
		}
	}
	return true
}

// activeShards lists the shards with an event due before wEnd, in shard
// order. The scratch slice is reused across windows.
func (g *ShardGroup) activeShards(wEnd Time) []int {
	active := g.activeScratch[:0]
	for i, k := range g.shards {
		if t, ok := k.nextEventTime(); ok && t < wEnd {
			active = append(active, i)
		}
	}
	g.activeScratch = active
	return active
}

// startPool launches workers−1 window goroutines; the coordinator is
// the last worker. The feed and the results are buffered to the shard
// count, so neither the coordinator's feed loop nor a goroutine
// publishing a result ever blocks, regardless of scheduling order.
func (g *ShardGroup) startPool() {
	feed := make(chan windowJob, len(g.shards))
	results := make(chan windowResult, len(g.shards))
	g.feed, g.results = feed, results
	shards := g.shards
	g.pool.Add(g.workers - 1)
	for w := 1; w < g.workers; w++ {
		go func() {
			defer g.pool.Done()
			for job := range feed {
				results <- windowResult{shard: job.shard, panicked: shards[job.shard].runWindow(job.wEnd)}
			}
		}()
	}
}

// stopPool closes the feed and waits for every worker to exit, so a
// finished Run leaves no pool goroutine behind.
func (g *ShardGroup) stopPool() {
	if g.feed != nil {
		close(g.feed)
		g.feed = nil
		g.results = nil
		g.pool.Wait()
	}
}

// mergeStaged drains the outboxes of the edges that staged in the
// window into their destination shards, in the deterministic merge
// order: ascending delivery timestamp, ties broken by edge registration
// order and then send order within the edge. The shards' dirty lists
// name those edges, so a barrier's cost follows its cross-shard traffic,
// not the number of edges; they are sorted by registration index and
// the arrivals gathered from them in that order are sorted stably by
// timestamp. Arrival timestamps are provably at or beyond every window
// the shards have executed, so insertion never schedules into a shard's
// past.
func (g *ShardGroup) mergeStaged() {
	dirty := g.dirtyScratch[:0]
	for _, k := range g.shards {
		dirty = append(dirty, k.dirty...)
		k.dirty = k.dirty[:0]
	}
	g.dirtyScratch = dirty[:0]
	if len(dirty) == 0 {
		return
	}
	slices.SortFunc(dirty, func(a, b *XChan) int { return cmp.Compare(a.index, b.index) })
	arrivals := g.arrivalScratch[:0]
	for _, x := range dirty {
		for _, m := range x.staged {
			arrivals = append(arrivals, arrival{x: x, at: m.at, v: m.v})
		}
		g.staged[x.src] += int64(len(x.staged))
		g.crossShard += int64(len(x.staged))
		clear(x.staged) // release references
		x.staged = x.staged[:0]
	}
	slices.SortStableFunc(arrivals, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
	for _, a := range arrivals {
		x, v := a.x, a.v
		dst := g.shards[x.dst]
		dst.atFuture(a.at, func() { x.inner.push(v) }, nil)
	}
	clear(arrivals)
	g.arrivalScratch = arrivals[:0]
}

// arrival is one staged cross-shard event awaiting barrier merge.
type arrival struct {
	x  *XChan
	at Time
	v  interface{}
}

// Stats snapshots the whole group: sums of the per-shard execution
// counters, the union of named counters, every shard's resources in
// shard order, and the per-shard summaries. MaxQueue aggregates as the
// maximum over shards — each shard's high-water mark is deterministic,
// and no single queue ever held more. Every field is independent of the
// worker count.
func (g *ShardGroup) Stats() Stats {
	agg := Stats{
		Now:          g.Now(),
		Windows:      g.windows,
		CrossShard:   g.crossShard,
		BarrierStall: g.totalStall(),
	}
	resources := 0
	for _, k := range g.shards {
		resources += len(k.resources)
	}
	if resources > 0 {
		agg.Resources = make([]ResourceStats, 0, resources)
	}
	agg.Shards = make([]ShardStats, 0, len(g.shards))
	counters := map[string]int64{}
	for i, k := range g.shards {
		s := k.counts()
		agg.Events += s.Events
		agg.Spawned += s.Spawned
		agg.Finished += s.Finished
		agg.Parks += s.Parks
		agg.Unparks += s.Unparks
		agg.LiveProcs += s.LiveProcs
		if s.MaxQueue > agg.MaxQueue {
			agg.MaxQueue = s.MaxQueue
		}
		for name, v := range k.counters {
			counters[name] += v
		}
		agg.Resources = k.appendResources(agg.Resources)
		agg.Shards = append(agg.Shards, ShardStats{
			Shard:    i,
			Events:   s.Events,
			Spawned:  s.Spawned,
			Parks:    s.Parks,
			Unparks:  s.Unparks,
			MaxQueue: s.MaxQueue,
			Staged:   g.staged[i],
			Stall:    g.stall[i],
		})
	}
	if len(counters) > 0 {
		agg.Counters = counters
	}
	return agg
}

// totalStall sums the per-shard barrier idle time.
func (g *ShardGroup) totalStall() Duration {
	var total Duration
	for _, d := range g.stall {
		total += d
	}
	return total
}

// XChan is a directed cross-shard message channel: the only sanctioned
// way for processes on different shards to interact. A send stages the
// value with delivery timestamp now + latency into the edge's outbox;
// the group merges outboxes at each window barrier and the value
// becomes receivable on the destination shard at its delivery instant.
// Sends never block (the latency models the transfer; senders that must
// pace themselves wait explicitly), receives block like an ordinary
// channel receive.
type XChan struct {
	g        *ShardGroup
	index    int32 // registration order: the merge's tie-break
	src, dst int32
	latency  Duration
	inner    *Chan
	staged   []stagedMsg // outbox: written by src shard in-window, drained at the barrier
}

// stagedMsg is one staged cross-shard event.
type stagedMsg struct {
	at Time
	v  interface{}
}

// Name returns the channel's name.
func (x *XChan) Name() string { return x.inner.Name() }

// Latency reports the edge's modelled transfer time.
func (x *XChan) Latency() Duration { return x.latency }

// Src and Dst report the edge's endpoints.
func (x *XChan) Src() int { return int(x.src) }
func (x *XChan) Dst() int { return int(x.dst) }

// Send stages v for delivery latency from now. p must be a process of
// the source shard; sending from any other shard would race and is a
// programming error.
func (x *XChan) Send(p *Proc, v interface{}) {
	if p.k != x.g.shards[x.src] {
		panic(fmt.Sprintf("sim: xchan %s: send from a process of the wrong shard", x.Name()))
	}
	x.postAfter(v, x.latency)
}

// PostDelayed stages v with an explicit transfer time d ≥ the edge
// latency, for senders whose modelled delivery time varies with the
// payload (a link frame's DMA startup plus per-byte wire time). The
// registered latency remains the conservative floor that bounds the
// group's windows; d only sets this value's arrival instant.
func (x *XChan) PostDelayed(v interface{}, d Duration) {
	if d < x.latency {
		panic(fmt.Sprintf("sim: xchan %s: delay %v below the edge latency %v breaks the lookahead bound", x.Name(), d, x.latency))
	}
	x.postAfter(v, d)
}

func (x *XChan) postAfter(v interface{}, d Duration) {
	src := x.g.shards[x.src]
	at := src.now.Add(d)
	if x.src == x.dst {
		// Degenerate local edge: no staging needed, but identical timing.
		x.inner.k.At(at, func() { x.inner.push(v) })
		return
	}
	if len(x.staged) == 0 {
		src.dirty = append(src.dirty, x) // the edge's first send this window
	}
	x.staged = append(x.staged, stagedMsg{at: at, v: v})
}

// Recv blocks the destination-shard process p until a value arrives.
func (x *XChan) Recv(p *Proc) interface{} { return x.inner.Recv(p) }

// Inbox exposes the destination-side channel for Select constructs.
func (x *XChan) Inbox() *Chan { return x.inner }
