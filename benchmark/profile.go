package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A minimal reader for the gzip'd protobuf profiles runtime/pprof
// writes (github.com/google/pprof/proto/profile.proto), enough to fold
// CPU samples by stack without a module dependency.

// profSample is one profile sample: its stack, leaf first, as function
// names (inlined frames expanded), and its CPU time in nanoseconds.
type profSample struct {
	stack []string
	ns    int64
}

// parseProfile decodes a gzip'd CPU profile into samples.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		types   []int64 // string index of each sample type
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					types = append(types, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, wire, v, b)
				case 2:
					for _, u := range appendPacked(nil, wire, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	// The CPU time column is the sample type named "cpu"; fall back to
	// the last column.
	col := len(types) - 1
	for i, t := range types {
		if str(t) == "cpu" {
			col = i
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if col < 0 || col >= len(s.values) {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				stack = append(stack, str(fnName[fn]))
			}
		}
		out = append(out, profSample{stack: stack, ns: s.values[col]})
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the bytes.
func eachField(buf []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(buf) > 0 {
		key, n := uvarint(buf)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		buf = buf[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(buf)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			buf = buf[n:]
		case 1:
			if len(buf) < 8 {
				return errors.New("profile: short fixed64")
			}
			buf = buf[8:]
		case 2:
			l, n := uvarint(buf)
			if n <= 0 || uint64(len(buf)-n) < l {
				return errors.New("profile: bad length")
			}
			b, buf = buf[n:n+int(l)], buf[n+int(l):]
		case 5:
			if len(buf) < 4 {
				return errors.New("profile: short fixed32")
			}
			buf = buf[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field's values, packed or not.
func appendPacked(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

const internalPrefix = "tseries/internal/"

// layerOf attributes one stack (leaf first) to a CPU layer. The
// innermost frame in one of the repository's internal packages wins, so
// runtime work a package causes (memmove under link.stageFrame, a GC
// assist under a sim allocation) is charged to that package. Stacks
// with no such frame are network I/O ("http"), background GC ("gc"),
// the benchmark's own client code ("harness"), or the scheduler and
// everything else ("runtime").
func layerOf(stack []string) string {
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg := rest[:strings.IndexAny(rest+".", "./")]
			if slices.Contains(cpuLayers, pkg) {
				return pkg
			}
			return "other"
		}
	}
	has := func(pred func(string) bool) bool { return slices.ContainsFunc(stack, pred) }
	switch {
	case has(func(f string) bool { return strings.HasPrefix(f, "net/") || strings.HasPrefix(f, "net.") }):
		return "http"
	case has(func(f string) bool {
		return f == "runtime.gcBgMarkWorker" || f == "runtime.bgsweep" || f == "runtime.bgscavenge"
	}):
		return "gc"
	case has(func(f string) bool { return strings.HasPrefix(f, "main.") }):
		return "harness"
	}
	return "runtime"
}

// foldProfile sums a CPU profile's time per layer, in nanoseconds.
func foldProfile(data []byte) (map[string]int64, error) {
	samples, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += s.ns
	}
	return out, nil
}
