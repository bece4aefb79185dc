//go:build race

// Package race reports whether the binary was built with the race
// detector, so allocation-budget tests (testing.AllocsPerRun) can skip
// themselves: the detector's instrumentation allocates on its own.
package race

// Enabled is true under -race.
const Enabled = true
