package fault

import (
	"strings"
	"testing"

	"tseries/internal/memory"
)

// FuzzParse hammers the fault-plan grammar: any input must either
// produce a plan or return an error — never panic, and never return
// both nil plan and nil error for a non-empty spec.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"",
		"seed=7",
		"ber=1e-6",
		"crash=2@1.5s",
		"down=0.1@1s+500ms",
		"flip=3:1024.5@2s",
		"disk=0.12@3s",
		"seed=42,ber=1e-7,crash=1@1s,down=2.0@2s+1s,flip=0:0.0@1ms,disk=1.3@4s",
		"crash=@",
		"down=..@+",
		"seed=999999999999999999999999",
		"crash=-1@1s",
		"flip=1:2.99@1s",
		"down=0.1@-5s",
		"ber=2",
		"unknown=x",
		"crash=1@1s,,",
		"=",
		"@",
		"crash=18446744073709551615@1h",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		pl, err := Parse(spec)
		if err != nil {
			if pl != nil {
				t.Fatalf("Parse(%q) returned both plan and error %v", spec, err)
			}
			return
		}
		if pl == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("Parse(%q) returned nil plan with nil error", spec)
			}
			return
		}
		// Accepted plans must be sane: no negative times or targets.
		for _, ev := range pl.Events {
			if ev.At < 0 {
				t.Fatalf("Parse(%q) produced negative event time %v", spec, ev.At)
			}
			if ev.Node < 0 || ev.Dim < 0 || ev.Addr < 0 || ev.Mod < 0 || ev.Blk < 0 {
				t.Fatalf("Parse(%q) produced negative target in %+v", spec, ev)
			}
			if ev.Kind == FlipBit && (ev.Addr >= memory.Bytes || ev.Bit > 7) {
				t.Fatalf("Parse(%q) accepted a flip outside the node store: %+v", spec, ev)
			}
		}
		if pl.BER < 0 || pl.BER >= 1 {
			t.Fatalf("Parse(%q) accepted BER %v outside [0,1)", spec, pl.BER)
		}
	})
}

// FuzzParseChaos does the same for the chaos-recipe grammar.
func FuzzParseChaos(f *testing.F) {
	for _, seed := range []string{
		"",
		"seed=1,dur=60s",
		"seed=9,dur=10m,crashes=3,hangs=1,downs=2,flips=4,ber=1e-8",
		"dur=0s",
		"dur=-1s",
		"crashes=1",
		"seed=x,dur=1s",
		"dur=1s,crashes=-2",
		"dur=1s,ber=1.5",
		"dur=1s,unknown=2",
		"dur=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChaos(spec)
		if err != nil {
			return
		}
		if c == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("ParseChaos(%q) returned nil recipe with nil error", spec)
			}
			return
		}
		if c.Dur <= 0 {
			t.Fatalf("ParseChaos(%q) accepted non-positive duration %v", spec, c.Dur)
		}
		if c.Crashes < 0 || c.Hangs < 0 || c.Downs < 0 || c.Flips < 0 {
			t.Fatalf("ParseChaos(%q) accepted negative counts: %+v", spec, c)
		}
		// Expansion must be total and deterministic for any accepted
		// recipe.
		a, b := c.Expand(16, 4), (&Chaos{Seed: c.Seed, Dur: c.Dur, Crashes: c.Crashes,
			Hangs: c.Hangs, Downs: c.Downs, Flips: c.Flips, BER: c.BER}).Expand(16, 4)
		if len(a.Events) != len(b.Events) {
			t.Fatalf("ParseChaos(%q): expansion not deterministic", spec)
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("ParseChaos(%q): event %d differs between expansions", spec, i)
			}
		}
	})
}
