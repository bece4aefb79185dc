//go:build !race

package race

// Enabled is false without -race.
const Enabled = false
