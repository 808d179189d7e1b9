package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps the spans of a traced pass in memory: one per call the
// benchmark makes into the program (build, sample, run, submit, poll,
// result, open, probe). A nil *tracer records nothing, so untraced
// samples pay only a nil check.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	nextID int
}

type span struct {
	Name   string
	Track  int // Chrome trace "tid": 0 for the harness, 1+ per tsimd client
	ID     int
	Parent int // 0 for a root span
	Start  time.Time
	End    time.Time
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span and returns its id, for end and for children.
func (t *tracer) begin(name string, track, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	t.spans = append(t.spans, span{Name: name, Track: track, ID: t.nextID, Parent: parent, Start: time.Now()})
	return t.nextID
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// selfTimes sums each span name's self time: its duration minus the
// part of that interval its direct children cover. Children on
// different tracks (tsimd's clients) overlap, so the covered part is
// the union of their intervals.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		self := s.End.Sub(s.Start)
		cs := children[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start.Before(cs[j].Start) })
		covered := s.Start // end of the union so far
		for _, c := range cs {
			start, end := c.Start, c.End
			if start.Before(covered) {
				start = covered
			}
			if end.After(s.End) {
				end = s.End
			}
			if end.After(start) {
				self -= end.Sub(start)
				covered = end
			}
		}
		out[s.Name] += self
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (opens in
// Perfetto or chrome://tracing).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Track,
			Ts:   float64(s.Start.Sub(t.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": s.ID, "parent": s.Parent},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]interface{}{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
