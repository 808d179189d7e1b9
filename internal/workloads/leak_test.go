package workloads

import (
	"runtime"
	"testing"

	"tseries/internal/fault"
	"tseries/internal/leakcheck"
	"tseries/internal/sim"
)

// TestRunsLeaveNoGoroutine: a finished run holds no goroutine. Its
// routers, thread forwarders, collectors and ring services are idle
// Serve processes, so the count returns to its baseline after a dim-3
// matmul (one module) and after a dim-5 recovery run with checkpoints,
// bit errors and a crash (four modules on two kernel workers).
func TestRunsLeaveNoGoroutine(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  func() Config
	}{
		{"matmul", func() Config {
			return Config{Dim: 3, N: 32, Seed: 1}
		}},
		{"recovery", func() Config {
			plan, err := fault.Parse("seed=1,ber=1e-6,crash=2@12s")
			if err != nil {
				t.Fatal(err)
			}
			return Config{Dim: 5, Rows: 100, Phases: 8, Seed: 1, Pad: 2 * sim.Second,
				Ckpt: 2 * sim.Second, Faults: plan, KernelShards: 2}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			reportBytes(t, c.name, c.cfg())
			if err := leakcheck.Wait(base); err != nil {
				t.Fatal(err)
			}
		})
	}
}
