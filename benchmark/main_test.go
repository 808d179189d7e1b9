package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the harness re-executes itself to run a sim operation.
func TestMain(m *testing.M) {
	if spec := os.Getenv(opEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}
