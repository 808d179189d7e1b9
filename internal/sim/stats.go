package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Stats is a snapshot of engine-level execution metrics: what the kernel
// did to get the simulation to its current instant. Any run can report
// these without instrumenting component code — the kernel counts events
// and process lifecycle transitions itself, resources register themselves
// at construction, and components publish extra quantities through the
// named-counter surface (Kernel.Count).
type Stats struct {
	Now      Time  // simulated clock at snapshot time
	Events   int64 // events executed by Run
	Spawned  int64 // processes started (Go, Serve and Every)
	Finished int64 // processes that ran to completion or were killed
	Parks    int64 // times a process blocked (wait, channel, resource, join)
	Unparks  int64 // times a blocked process was scheduled to resume
	MaxQueue int   // high-water mark of the pending event queue
	// LiveProcs is the number of non-daemon processes alive at snapshot
	// time. At the end of a completed run it must be zero — anything
	// else is a leaked (forever-blocked, never-killed) process.
	LiveProcs int

	// Sharded-run metrics, populated only by ShardGroup.Stats. All of
	// them are deterministic for a fixed logical partition — independent
	// of the worker count and of wall-clock scheduling — so sharded
	// reports stay byte-identical across physical parallelism levels.
	// They are omitted from JSON for plain serial kernels, keeping the
	// serial report shape (and the pinned golden outputs) unchanged.

	// Windows counts conservative synchronization windows executed.
	Windows int64 `json:"Windows,omitempty"`
	// CrossShard counts events staged across shard boundaries.
	CrossShard int64 `json:"CrossShard,omitempty"`
	// BarrierStall is the total simulated time shards spent idle before
	// a window barrier: the window end minus the shard's clock after its
	// last local event, summed over windows and shards. It measures how
	// unevenly the partition loads the shards, in simulated time — not
	// host time — so it is reproducible.
	BarrierStall Duration `json:"BarrierStall,omitempty"`
	// Shards holds one summary per shard of a ShardGroup run.
	Shards []ShardStats `json:"Shards,omitempty"`

	// Counters holds component-published quantities (e.g. "link.bytes",
	// the payload bytes carried by every serial link).
	Counters map[string]int64

	// Resources holds one utilization snapshot per Resource created
	// under this kernel, in creation order.
	Resources []ResourceStats
}

// ShardStats is one shard's execution summary under a ShardGroup run.
// Every field is deterministic for a fixed logical partition.
type ShardStats struct {
	Shard    int   // shard index within the group
	Events   int64 // events executed by this shard
	Spawned  int64 // processes started on this shard
	Parks    int64 // blocks on this shard
	Unparks  int64 // resumes scheduled on this shard
	MaxQueue int   // this shard's pending-event high-water mark
	// Staged counts cross-shard events this shard originated (sends on
	// its outbound XChan edges).
	Staged int64
	// Stall is the simulated idle time this shard accumulated before
	// window barriers (see Stats.BarrierStall).
	Stall Duration
}

// ResourceStats is one resource's utilization snapshot.
type ResourceStats struct {
	Name        string
	Units       int
	InUse       int
	Busy        Duration // integrated unit-time in use
	Utilization float64  // Busy / (elapsed × Units), 0..1
}

// String renders the snapshot as a compact one-line summary.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events=%d procs=%d/%d parks=%d unparks=%d maxqueue=%d",
		s.Events, s.Finished, s.Spawned, s.Parks, s.Unparks, s.MaxQueue)
	if len(s.Shards) > 0 {
		fmt.Fprintf(&b, " shards=%d windows=%d crossshard=%d stall=%v",
			len(s.Shards), s.Windows, s.CrossShard, s.BarrierStall)
	}
	keys := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%d", k, s.Counters[k])
	}
	return b.String()
}

// Count adds delta to the named component counter. Components use this
// to publish quantities (bytes moved, frames sent) that runs report
// uniformly through Stats without bespoke plumbing.
func (k *Kernel) Count(name string, delta int64) { k.counters[name] += delta }

// Counter reads a named component counter (0 if never counted).
func (k *Kernel) Counter(name string) int64 { return k.counters[name] }

// Stats snapshots the kernel's execution metrics at the current instant.
func (k *Kernel) Stats() Stats {
	s := k.counts()
	if len(k.counters) > 0 {
		s.Counters = make(map[string]int64, len(k.counters))
		for name, v := range k.counters {
			s.Counters[name] = v
		}
	}
	if len(k.resources) > 0 {
		s.Resources = k.appendResources(make([]ResourceStats, 0, len(k.resources)))
	}
	return s
}

// counts is Stats without the named counters and the resources.
func (k *Kernel) counts() Stats {
	return Stats{
		Now:       k.now,
		Events:    k.events,
		Spawned:   k.spawned,
		Finished:  k.finished,
		Parks:     k.parks,
		Unparks:   k.unparks,
		MaxQueue:  k.maxQueue,
		LiveProcs: k.procs,
	}
}

// appendResources appends one utilization snapshot per resource, in
// creation order.
func (k *Kernel) appendResources(dst []ResourceStats) []ResourceStats {
	for _, r := range k.resources {
		dst = append(dst, ResourceStats{
			Name:        r.Name(),
			Units:       r.total,
			InUse:       r.inUse,
			Busy:        r.BusyTime(),
			Utilization: r.Utilization(),
		})
	}
	return dst
}
