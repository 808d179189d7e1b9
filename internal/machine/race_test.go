//go:build race

package machine

// The race runtime allocates shadow state of its own, so heap bounds
// are checked only without it.
func init() { raceEnabled = true }
