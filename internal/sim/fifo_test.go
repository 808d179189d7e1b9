package sim

import "testing"

// TestFifoOrderAcrossCompaction drives a fifo through growth, in-place
// compaction, mid-queue removal and draining, against a plain slice
// model, and checks that a drained queue pins nothing.
func TestFifoOrderAcrossCompaction(t *testing.T) {
	var q fifo[*int]
	var model []*int
	vals := make([]int, 200)
	next := 0
	check := func(step int) {
		t.Helper()
		got := q.items()
		if len(got) != len(model) || q.len() != len(model) {
			t.Fatalf("step %d: %d queued, model has %d", step, q.len(), len(model))
		}
		for i := range got {
			if got[i] != model[i] {
				t.Fatalf("step %d: item %d is %d, want %d", step, i, *got[i], *model[i])
			}
		}
	}
	// Pushes outpace pops, then match them, then stop: the queue grows,
	// compacts while it is never empty, and drains.
	compactions := 0
	for step := 0; step < 400; step++ {
		growing := step < 100 && step%3 != 2
		steady := step >= 100 && step < 300 && step%2 == 0
		switch {
		case growing || steady || (step < 300 && len(model) == 0):
			v := &vals[next%len(vals)]
			*v = next
			next++
			head := q.head
			q.push(v)
			if head > 0 && q.head == 0 {
				compactions++
			}
			model = append(model, v)
		case step%7 == 0 && len(model) > 2:
			q.remove(1)
			model = append(model[:1], model[2:]...)
		case len(model) > 0:
			if got := q.pop(); got != model[0] {
				t.Fatalf("step %d: pop %d, want %d", step, *got, *model[0])
			}
			model = model[1:]
		}
		check(step)
	}
	if compactions == 0 {
		t.Fatal("the queue never compacted in place")
	}
	for q.len() > 0 {
		q.pop()
	}
	if q.head != 0 || len(q.s) != 0 {
		t.Fatalf("drained queue: head %d, len %d; want it rewound to the front", q.head, len(q.s))
	}
	for i, v := range q.s[:cap(q.s)] {
		if v != nil {
			t.Fatalf("drained queue still pins slot %d", i)
		}
	}
}
