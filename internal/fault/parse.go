package fault

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tseries/internal/memory"
	"tseries/internal/sim"
)

// Parse builds a Plan from the comma-separated specification accepted
// by `tsim -faults`. Clauses:
//
//	seed=N                     RNG seed (default 1)
//	ber=F                      link bit-error rate, e.g. 1e-6
//	crash=NODE@DUR             crash node NODE at time DUR ("2@1.5s")
//	down=NODE.DIM@DUR[+DUR]    cut the dimension-DIM link at NODE at
//	                           time DUR; with +DUR, restore it after
//	                           that long ("0.1@1s+500ms")
//	flip=NODE:ADDR.BIT@DUR     flip DRAM bit BIT (0..7) of byte ADDR
//	                           (below 1 MB) on NODE
//	disk=MOD.BLK@DUR           corrupt stored block #BLK (sorted order)
//	                           on module MOD's disk
//
// Durations use Go syntax (ns/us/ms/s/m). An empty spec returns nil.
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	pl := &Plan{Seed: 1}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		eq := strings.IndexByte(clause, '=')
		if eq < 0 {
			return nil, fmt.Errorf("fault: clause %q is not key=value", clause)
		}
		key, val := clause[:eq], clause[eq+1:]
		var err error
		switch key {
		case "seed":
			pl.Seed, err = strconv.ParseUint(val, 10, 64)
		case "ber":
			pl.BER, err = strconv.ParseFloat(val, 64)
			if err == nil && (pl.BER < 0 || pl.BER >= 1) {
				err = fmt.Errorf("rate %v outside [0,1)", pl.BER)
			}
		case "crash":
			err = parseCrash(pl, val)
		case "down":
			err = parseDown(pl, val)
		case "flip":
			err = parseFlip(pl, val)
		case "disk":
			err = parseDisk(pl, val)
		default:
			err = fmt.Errorf("unknown clause")
		}
		if err != nil {
			return nil, fmt.Errorf("fault: bad clause %q: %v", clause, err)
		}
	}
	return pl, nil
}

// splitAt separates "TARGET@DUR" into its halves.
func splitAt(val string) (string, sim.Duration, error) {
	i := strings.IndexByte(val, '@')
	if i < 0 {
		return "", 0, fmt.Errorf("missing @time")
	}
	d, err := parseDur(val[i+1:])
	return val[:i], d, err
}

func parseDur(s string) (sim.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("bad duration %q", s)
	}
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond, nil
}

func parseCrash(pl *Plan, val string) error {
	tgt, at, err := splitAt(val)
	if err != nil {
		return err
	}
	node, err := strconv.Atoi(tgt)
	if err != nil || node < 0 {
		return fmt.Errorf("bad node %q", tgt)
	}
	pl.Events = append(pl.Events, Event{At: at, Kind: Crash, Node: node})
	return nil
}

func parseDown(pl *Plan, val string) error {
	i := strings.IndexByte(val, '@')
	if i < 0 {
		return fmt.Errorf("missing @time")
	}
	node, dim, err := dotPair(val[:i])
	if err != nil {
		return err
	}
	times := val[i+1:]
	var hold sim.Duration = -1
	if plus := strings.IndexByte(times, '+'); plus >= 0 {
		hold, err = parseDur(times[plus+1:])
		if err != nil {
			return err
		}
		times = times[:plus]
	}
	at, err := parseDur(times)
	if err != nil {
		return err
	}
	pl.Events = append(pl.Events, Event{At: at, Kind: LinkDown, Node: node, Dim: dim})
	if hold >= 0 {
		pl.Events = append(pl.Events, Event{At: at + hold, Kind: LinkUp, Node: node, Dim: dim})
	}
	return nil
}

func parseFlip(pl *Plan, val string) error {
	tgt, at, err := splitAt(val)
	if err != nil {
		return err
	}
	colon := strings.IndexByte(tgt, ':')
	if colon < 0 {
		return fmt.Errorf("want NODE:ADDR.BIT")
	}
	node, err := strconv.Atoi(tgt[:colon])
	if err != nil || node < 0 {
		return fmt.Errorf("bad node %q", tgt[:colon])
	}
	addr, bit, err := dotPair(tgt[colon+1:])
	switch {
	case err != nil:
		return err
	case addr >= memory.Bytes:
		return fmt.Errorf("address %d past the %d-byte node store", addr, memory.Bytes)
	case bit > 7:
		return fmt.Errorf("bit %d outside 0..7", bit)
	}
	pl.Events = append(pl.Events, Event{At: at, Kind: FlipBit, Node: node, Addr: addr, Bit: uint(bit)})
	return nil
}

func parseDisk(pl *Plan, val string) error {
	tgt, at, err := splitAt(val)
	if err != nil {
		return err
	}
	mod, blk, err := dotPair(tgt)
	if err != nil {
		return err
	}
	pl.Events = append(pl.Events, Event{At: at, Kind: DiskCorrupt, Mod: mod, Blk: blk})
	return nil
}

// dotPair parses "A.B" into two non-negative ints (B defaults to 0).
func dotPair(s string) (int, int, error) {
	bs := "0"
	if i := strings.IndexByte(s, '.'); i >= 0 {
		s, bs = s[:i], s[i+1:]
	}
	a, err := strconv.Atoi(s)
	if err != nil || a < 0 {
		return 0, 0, fmt.Errorf("bad number %q", s)
	}
	b, err := strconv.Atoi(bs)
	if err != nil || b < 0 {
		return 0, 0, fmt.Errorf("bad number %q", bs)
	}
	return a, b, nil
}
