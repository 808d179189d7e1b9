package fault

// Sharded adapts a Plan for a machine of more than one shard. A Plan
// used directly as the injector consumes a single splitmix64 stream in
// kernel order, which makes the fault sequence depend on the global
// interleaving of link transfers — exactly what a multi-shard machine
// does not have. Sharded instead derives one independent stream per
// link: every Link is owned by one node and therefore one shard, so a
// per-link stream is consumed strictly serially by its owning shard,
// and the corruption pattern on each wire depends only on (seed, link
// name, transfer count on that link) — invariant under worker count.
//
// One-shard machines keep the Plan's shared-stream behaviour untouched,
// so the single-module experiments (E17, E18) reproduce their golden
// traces bit for bit.
type Sharded struct {
	plan *Plan
	subs []*Plan
}

// NewSharded wraps a plan for per-link stream derivation. The wrapped
// plan's own Corrupt stream is never consumed.
func NewSharded(pl *Plan) *Sharded {
	return &Sharded{plan: pl}
}

// fnv64 is FNV-1a over the link name, folded into the stream seed.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ForLink creates the dedicated corruption stream for one link. It must
// be called from host context (at machine build / fault-arm time, before
// the simulation runs) so that stream creation order never depends on
// simulation scheduling. The returned Plan carries only the BER and its
// derived seed; timed events stay on the parent plan.
func (s *Sharded) ForLink(name string) *Plan {
	sub := &Plan{Seed: s.plan.Seed ^ fnv64(name), BER: s.plan.BER}
	s.subs = append(s.subs, sub)
	return sub
}

// Totals aggregates the corruption counters across every per-link
// stream, for fault reports.
func (s *Sharded) Totals() (framesCorrupted, bitsFlipped int64) {
	for _, sub := range s.subs {
		framesCorrupted += sub.FramesCorrupted
		bitsFlipped += sub.BitsFlipped
	}
	return
}
