//go:build race

package core

// raceEnabled reports whether the race detector is on; allocation
// pinning tests skip under it because instrumentation skews counts.
const raceEnabled = true
