package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"tseries/internal/stats"
)

// Result is one experiment's reproduction output: a printable table, a
// set of named scalar metrics the benchmarks and tests assert on, and
// free-form notes comparing against the paper.
type Result struct {
	ID      string
	Title   string
	Table   *stats.Table
	Metrics map[string]float64
	Notes   []string
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Metrics: map[string]float64{}}
}

func (r *Result) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the experiment block for the harness output.
func (r *Result) String() string {
	s := fmt.Sprintf("### %s — %s\n", r.ID, r.Title)
	if r.Table != nil {
		s += r.Table.String()
	}
	if len(r.Metrics) > 0 {
		keys := make([]string, 0, len(r.Metrics))
		for k := range r.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			s += fmt.Sprintf("  %-32s %.6g\n", k, r.Metrics[k])
		}
	}
	for _, n := range r.Notes {
		s += "  * " + n + "\n"
	}
	return s
}

// Experiment regenerates one table or figure of the paper. Run builds
// its own System and kernel, so experiments are independent and may run
// concurrently. The kernels an experiment builds are bound to ctx, so a
// canceled context aborts an in-flight experiment at the next event
// boundary and Run returns the context's error.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context) (*Result, error)
}

// registry holds every registered experiment. Each exp_*.go file
// declares its experiments in an init(), so adding one is a single
// register call next to its implementation.
var registry = map[string]Experiment{}

// register adds an experiment; duplicate IDs are a programming error.
// The registered Run returns the context's error whenever ctx ended
// before the experiment returned: every kernel and group an experiment
// builds is bound to ctx, and a torn-down one reports exactly that error
// (Kernel.Err), so this one check stands for each of theirs.
func register(id, title string, run func(ctx context.Context) (*Result, error)) {
	if _, dup := registry[id]; dup {
		panic("core: duplicate experiment " + id)
	}
	registry[id] = Experiment{ID: id, Title: title, Run: func(ctx context.Context) (*Result, error) {
		r, err := run(ctx)
		if err == nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return r, err
	}}
}

// ordinal maps an ID like "E12" or "A3" to its suite position: the
// paper experiments (E…) in numeric order, then the ablations (A…).
func ordinal(id string) int {
	if len(id) < 2 {
		return 1 << 30
	}
	n := 0
	for _, c := range id[1:] {
		if c < '0' || c > '9' {
			return 1 << 30
		}
		n = n*10 + int(c-'0')
	}
	if id[0] == 'A' {
		n += 1 << 16
	} else if id[0] != 'E' {
		return 1 << 30
	}
	return n
}

// All returns the full experiment suite in paper order — E1..E20 — then
// the ablations A1..A6 of DESIGN.md §5.
func All() []Experiment {
	exps := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		exps = append(exps, e)
	}
	sort.Slice(exps, func(i, j int) bool {
		oi, oj := ordinal(exps[i].ID), ordinal(exps[j].ID)
		if oi != oj {
			return oi < oj
		}
		return exps[i].ID < exps[j].ID
	})
	return exps
}

// IDs lists the registered experiment IDs in suite order.
func IDs() []string {
	exps := All()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// Find returns the experiment with the given ID; the error lists the
// valid IDs.
func Find(id string) (Experiment, error) {
	if e, ok := registry[id]; ok {
		return e, nil
	}
	return Experiment{}, fmt.Errorf("core: no experiment %q (valid: %s)", id, strings.Join(IDs(), ", "))
}
