//go:build !race

package core

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
