//go:build race

package main

// The race runtime's frames break CPU-profile stacks, so real-profile
// attribution is only checked without it.
func init() { raceEnabled = true }
