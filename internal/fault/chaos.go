package fault

import (
	"fmt"
	"strconv"
	"strings"

	"tseries/internal/memory"
	"tseries/internal/sim"
)

// Chaos is a recipe for a randomized soak scenario: rather than
// scripting individual events, the operator asks for "K silent crashes
// and a hang somewhere in a D-second run, seed N" and the recipe
// expands deterministically into a concrete Plan once the machine size
// is known. Every expansion of the same recipe against the same machine
// is identical, so a chaos soak is as replayable as a scripted plan.
type Chaos struct {
	// Seed drives every random choice of the expansion.
	Seed uint64
	// Dur is the nominal soak length; events land in its middle 80%
	// (faults at the very start hit before the first checkpoint, faults
	// at the very end race the finish line — neither soaks anything).
	Dur sim.Duration
	// Crashes, Hangs, Downs, Flips are the event counts to schedule.
	// All generated events are SILENT: the supervisor is never told,
	// and only the heartbeat detector can find the crashes and hangs.
	Crashes int
	Hangs   int
	Downs   int
	Flips   int
	// BER is a steady-state link bit-error rate for the whole soak.
	BER float64
}

// ParseChaos builds a Chaos recipe from the comma-separated
// specification accepted by `tsim -chaos`. Clauses:
//
//	seed=N      RNG seed (default 1)
//	dur=D       nominal soak length, Go duration syntax (required)
//	crashes=K   silent node crashes to inject (default 1)
//	hangs=K     silent node hangs to inject
//	downs=K     link outages to inject
//	flips=K     DRAM bit flips to inject
//	ber=F       steady link bit-error rate
//
// An empty spec returns nil.
func ParseChaos(spec string) (*Chaos, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	c := &Chaos{Seed: 1, Crashes: 1}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		eq := strings.IndexByte(clause, '=')
		if eq < 0 {
			return nil, fmt.Errorf("fault: chaos clause %q is not key=value", clause)
		}
		key, val := clause[:eq], clause[eq+1:]
		var err error
		switch key {
		case "seed":
			c.Seed, err = strconv.ParseUint(val, 10, 64)
		case "dur":
			c.Dur, err = parseDur(val)
		case "crashes":
			c.Crashes, err = parseCount(val)
		case "hangs":
			c.Hangs, err = parseCount(val)
		case "downs":
			c.Downs, err = parseCount(val)
		case "flips":
			c.Flips, err = parseCount(val)
		case "ber":
			c.BER, err = strconv.ParseFloat(val, 64)
			if err == nil && (c.BER < 0 || c.BER >= 1) {
				err = fmt.Errorf("rate %v outside [0,1)", c.BER)
			}
		default:
			err = fmt.Errorf("unknown clause")
		}
		if err != nil {
			return nil, fmt.Errorf("fault: bad chaos clause %q: %v", clause, err)
		}
	}
	if c.Dur <= 0 {
		return nil, fmt.Errorf("fault: chaos spec %q needs dur=D", spec)
	}
	return c, nil
}

func parseCount(s string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad count %q", s)
	}
	return n, nil
}

// Expand turns the recipe into a concrete Plan for a machine of the
// given node count and cube dimension. Event times fall in
// [0.1·Dur, 0.9·Dur]; targets are drawn uniformly. Crash and hang
// targets are distinct (a board can only die once), and every event is
// silent.
func (c *Chaos) Expand(nodes, dim int) *Plan {
	pl := &Plan{Seed: c.Seed, BER: c.BER}
	at := func() sim.Duration {
		lo := c.Dur / 10
		span := c.Dur - 2*lo
		if span <= 0 {
			span = 1
		}
		return lo + sim.Duration(pl.NextUint()%uint64(span))
	}
	taken := map[int]bool{}
	pickNode := func() int {
		for range [64]struct{}{} {
			n := int(pl.NextUint() % uint64(nodes))
			if !taken[n] {
				taken[n] = true
				return n
			}
		}
		return int(pl.NextUint() % uint64(nodes))
	}
	for i := 0; i < c.Crashes; i++ {
		pl.Events = append(pl.Events, Event{At: at(), Kind: Crash, Node: pickNode(), Silent: true})
	}
	for i := 0; i < c.Hangs; i++ {
		pl.Events = append(pl.Events, Event{At: at(), Kind: Hang, Node: pickNode(), Silent: true})
	}
	for i := 0; i < c.Downs; i++ {
		if dim <= 0 {
			break
		}
		n := int(pl.NextUint() % uint64(nodes))
		d := int(pl.NextUint() % uint64(dim))
		start := at()
		hold := sim.Duration(pl.NextUint()%uint64(c.Dur/10+1)) + c.Dur/100 + 1
		pl.Events = append(pl.Events,
			Event{At: start, Kind: LinkDown, Node: n, Dim: d, Silent: true},
			Event{At: start + hold, Kind: LinkUp, Node: n, Dim: d, Silent: true})
	}
	for i := 0; i < c.Flips; i++ {
		n := int(pl.NextUint() % uint64(nodes))
		addr := int(pl.NextUint() % memory.Bytes)
		bit := uint(pl.NextUint() % 8)
		pl.Events = append(pl.Events, Event{At: at(), Kind: FlipBit, Node: n, Addr: addr, Bit: bit, Silent: true})
	}
	return pl
}
