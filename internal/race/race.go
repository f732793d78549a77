//go:build race

// Package race reports whether the race detector is compiled in, for
// tests whose assertion (an allocation count) it invalidates.
package race

// Enabled is true under -race.
const Enabled = true
