// Package viewmutuse is the viewmut fixture: code outside
// internal/serving mutating slices obtained from serving.View query
// methods — exactly the writes that SIGSEGV on a mapped view.
package viewmutuse

import (
	"sort"

	"cnprobase/internal/serving"
)

func mutate(v *serving.View) {
	hs := v.HypernymIDsOf(0)
	hs[0] = 1 // want "write through a serving.View backing slice"
	tail := hs[1:]
	tail[0] = 2       // want "write through a serving.View backing slice"
	copy(hs, tail)    // want "copy into a serving.View backing slice"
	_ = append(hs, 3) // want "append to a serving.View backing slice"
	ents := v.MentionEntities(0)
	sort.Slice(ents, func(i, j int) bool { return ents[i] < ents[j] }) // want "in-place sort of a serving.View backing slice"
}

// readOnly proves query-and-read stays silent, including copying OUT of
// a view slice and sorting a private copy.
func readOnly(v *serving.View) string {
	ents := v.Lookup("刘德华")
	if len(ents) > 0 {
		mine := make([]string, len(ents))
		copy(mine, ents)
		sort.Strings(mine)
		return mine[0]
	}
	return ""
}
