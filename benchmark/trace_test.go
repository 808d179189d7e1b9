package main

import (
	"testing"
	"time"
)

// Children on different tracks overlap; a parent's self time subtracts
// the union of their intervals, never more than its own duration.
func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := &tracer{origin: t0, spans: []span{
		{Name: "sample", ID: 1, Start: at(0), End: at(10)},
		{Name: "job", Track: 1, ID: 2, Parent: 1, Start: at(1), End: at(5)},
		{Name: "job", Track: 2, ID: 3, Parent: 1, Start: at(3), End: at(8)},
		{Name: "submit", Track: 1, ID: 4, Parent: 2, Start: at(1), End: at(2)},
	}}
	got := tr.selfTimes()
	want := map[string]time.Duration{
		"sample": 3 * time.Millisecond, // 10 - |[1,8]|
		"job":    8 * time.Millisecond, // (4 - 1) + 5
		"submit": 1 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}
