package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"tseries/internal/fparith"
	"tseries/internal/memory"
	"tseries/internal/sim"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "tseries/internal/link.(*Link).stageFrame", "tseries/internal/sim.(*Kernel).spawn.func1"}, "link"},
		{[]string{"runtime.mallocgc", "tseries/internal/serve.(*Server).Submit", "net/http.HandlerFunc.ServeHTTP"}, "serve"},
		{[]string{"tseries/internal/fparith.Mul64", "tseries/internal/fpu.compute64"}, "fparith"},
		{[]string{"tseries/internal/cube.NewMesh"}, "other"},
		{[]string{"syscall.Syscall", "net.(*conn).Write", "net/http.(*persistConn).writeLoop"}, "http"},
		{[]string{"encoding/json.Unmarshal", "main.(*tsimdClient).status"}, "harness"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{nil, "runtime"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// profileWhile CPU-profiles fn for d and returns the parsed samples.
func profileWhile(t *testing.T, d time.Duration, fn func()) []profSample {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler busy: %v", err)
	}
	for end := time.Now().Add(d); time.Now().Before(end); {
		fn()
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("profile holds no samples")
	}
	return samples
}

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// A real profile of a known busy function folds into that function's
// package, and runtime work it causes (memmove) into the caller's.
func TestFoldProfileAttributesToInnermostPackage(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime truncates profiled stacks")
	}
	x := fparith.FromFloat64(1.0000001)
	busy := profileWhile(t, 400*time.Millisecond, func() {
		for i := 0; i < 10000; i++ {
			x = fparith.Mul64(x, x)
		}
	})
	byLayer := map[string]int64{}
	var total int64
	for _, s := range busy {
		byLayer[layerOf(s.stack)] += s.ns
		total += s.ns
	}
	if share := float64(byLayer["fparith"]) / float64(total); share < 0.5 {
		t.Errorf("fparith busy loop: fparith share %.2f of %v, want most of it", share, byLayer)
	}

	mem := memory.New(sim.NewKernel(), "probe")
	row := bytes.Repeat([]byte{0xA5}, memory.RowBytes)
	for r := 0; r < memory.NumRows; r++ {
		mem.PokeBytes(memory.RowAddr(r), row)
	}
	copies := profileWhile(t, time.Second, func() {
		mem.PeekBytes(0, memory.NumRows*memory.RowBytes)
	})
	moves := 0
	for _, s := range copies {
		if len(s.stack) > 0 && s.stack[0] == "runtime.memmove" {
			moves++
			if got := layerOf(s.stack); got != "memory" {
				t.Errorf("memmove under PeekBytes attributed to %q, want memory: %v", got, s.stack)
			}
		}
	}
	if moves == 0 {
		t.Error("no memmove samples while copying memory images")
	}
}
