//go:build !race

package qa

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
