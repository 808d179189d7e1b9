// Package stats provides the small reporting toolkit used by the
// experiment harness: aligned tables and rate conversions from simulated
// quantities.
package stats

import (
	"fmt"
	"strings"

	"tseries/internal/sim"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends one row; cells format with %v except float64, which uses
// a compact %.4g.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table. Rows may carry more cells than there are
// headers; the extra columns get headerless (but aligned) space.
func (t *Table) String() string {
	ncols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > ncols {
			ncols = len(r)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	seps := make([]string, ncols)
	for i := range seps {
		seps[i] = strings.Repeat("-", widths[i])
	}
	line(seps)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// FaultCounters aggregates the machine's error-detection and recovery
// accounting across every layer: wire corruption and the link layer's
// response, routing detours, disk scrubbing, and supervisor rollbacks.
type FaultCounters struct {
	// Injected faults.
	FramesCorrupted int64 // link frames the fault plan damaged
	BitsFlipped     int64 // individual wire bit errors injected
	// Link layer.
	Detected    int64 // corrupted frames the checksum caught (corrected by retransmit)
	Undetected  int64 // corrupted frames delivered — uncorrected errors
	Retransmits int64 // extra transmissions after a nack or timeout
	Timeouts    int64 // attempts lost to a severed wire or dead peer
	Drops       int64 // sends abandoned after the retransmit budget
	// Routing layer.
	Detours    int64 // forwards over a non-e-cube dimension
	RouteDrops int64 // messages dropped by routers
	// System layer.
	DiskCorrupted    int64 // disk blocks that failed their checksum
	Crashes          int64 // node crash events absorbed
	Hangs            int64 // node hang events absorbed
	ParityFaults     int64 // memory parity errors detected
	Rollbacks        int64 // checkpoint restores performed by the supervisor
	RestoreFallbacks int64 // rollbacks that had to reach past the newest snapshot
}

// Add accumulates another set of counters.
func (f FaultCounters) Add(o FaultCounters) FaultCounters {
	f.FramesCorrupted += o.FramesCorrupted
	f.BitsFlipped += o.BitsFlipped
	f.Detected += o.Detected
	f.Undetected += o.Undetected
	f.Retransmits += o.Retransmits
	f.Timeouts += o.Timeouts
	f.Drops += o.Drops
	f.Detours += o.Detours
	f.RouteDrops += o.RouteDrops
	f.DiskCorrupted += o.DiskCorrupted
	f.Crashes += o.Crashes
	f.Hangs += o.Hangs
	f.ParityFaults += o.ParityFaults
	f.Rollbacks += o.Rollbacks
	f.RestoreFallbacks += o.RestoreFallbacks
	return f
}

// Table renders the counters as a two-column report.
func (f FaultCounters) Table() *Table {
	t := NewTable("fault/recovery counters", "counter", "value")
	t.Add("frames corrupted (injected)", f.FramesCorrupted)
	t.Add("wire bits flipped (injected)", f.BitsFlipped)
	t.Add("detected (checksum nack)", f.Detected)
	t.Add("undetected (delivered bad)", f.Undetected)
	t.Add("retransmits", f.Retransmits)
	t.Add("ack timeouts", f.Timeouts)
	t.Add("link drops", f.Drops)
	t.Add("route detours", f.Detours)
	t.Add("route drops", f.RouteDrops)
	t.Add("disk blocks corrupt", f.DiskCorrupted)
	t.Add("node crashes", f.Crashes)
	t.Add("node hangs", f.Hangs)
	t.Add("memory parity faults", f.ParityFaults)
	t.Add("rollbacks", f.Rollbacks)
	t.Add("restore fallbacks", f.RestoreFallbacks)
	return t
}

// String renders the counter table.
func (f FaultCounters) String() string { return f.Table().String() }

// MBps converts a byte count over a simulated duration to MB/s.
func MBps(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e6
}

// MFLOPS converts an operation count over a simulated duration.
func MFLOPS(flops int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(flops) / d.Seconds() / 1e6
}

// Speedup is t1/tp.
func Speedup(t1, tp sim.Duration) float64 {
	if tp <= 0 {
		return 0
	}
	return float64(t1) / float64(tp)
}
