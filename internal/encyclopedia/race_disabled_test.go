//go:build !race

package encyclopedia_test

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
