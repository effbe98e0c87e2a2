package serving

import "slices"

// AppendImageOracle exposes the append-built image encoder kept as the
// streamed writer's oracle.
var AppendImageOracle = (*View).appendImageOracle

// Fixture exposes the query fixture to the external tests.
var Fixture = fixture

// RaceEnabled reports whether the race detector, which skews
// allocation counts, is on.
const RaceEnabled = raceEnabled

// MaxPooledRunes is the bound on the scratch a scan parks in its pool.
const MaxPooledRunes = maxPooledRunes

// PooledScratchCaps takes one scratch out of the scan pool and returns
// the capacities of its buffers; it does not put the scratch back.
func PooledScratchCaps() (rs, offs, found int) {
	sc := findPool.Get().(*findScratch)
	return cap(sc.rs), cap(sc.offs), cap(sc.found)
}

// FilterMatchesTable reports whether v's first-rune filter is the one
// firstRuneSet builds over v's mention tables — the base's and, on a
// view with a delta, the delta's: what Patch, which only adds the
// change's first runes to prev's filter, must keep true.
func FilterMatchesTable(v *View) bool {
	want := firstRuneSet(v.mentions)
	if d := v.delta; d != nil {
		for i := range d.rows.mentions.len() {
			want.add(d.rows.mentions.at(i))
		}
	}
	return slices.Equal(v.mentionFirst, want)
}
