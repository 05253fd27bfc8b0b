//go:build race

package testbed

// raceEnabled reports a -race build, whose instrumentation allocates.
const raceEnabled = true
