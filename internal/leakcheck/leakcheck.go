// Package leakcheck fails tests that leave goroutines running. Only
// _test.go files import it.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs m's tests and exits with their status. If they passed but
// the goroutine count does not fall back to what it was before them
// within 5 s, it prints every goroutine's stack and exits 1.
func Main(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := Wait(base); err != nil {
			fmt.Fprintln(os.Stderr, "leakcheck:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// Wait polls until at most base goroutines remain. After 5 s it gives up
// with an error that carries every goroutine's stack.
func Wait(base int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines outlive the tests (baseline %d):\n%s", runtime.NumGoroutine(), base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
