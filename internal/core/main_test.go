package core

import (
	"testing"

	"tseries/internal/leakcheck"
)

// TestMain fails the package if its tests leave a goroutine running.
func TestMain(m *testing.M) { leakcheck.Main(m) }
