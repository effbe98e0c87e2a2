//go:build !race

package ner

// raceEnabled reports whether the race detector is on.
const raceEnabled = false
