//go:build !race

package api

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
