package taxonomy

import (
	"cmp"
	"slices"
)

// changeLog accumulates what was written to a store — node IDs for the
// taxonomy, mentions for the mention index — between two reads by its
// one consumer, so the consumer can bring a derived structure (the
// serving view) up to date from the delta instead of re-reading the
// store. It records nothing until the consumer's first read: a build
// that is never frozen retains nothing. Reads are chained by a token; a
// read whose token is not the one the previous read returned — the
// first read, or a second consumer — gets ok=false and must fall back
// to a full re-read. Callers provide the locking.
type changeLog[T cmp.Ordered] struct {
	seq   uint64 // token of the last read; 0 = never read, not recording
	items []T
}

func (c *changeLog[T]) record(items ...T) {
	if c.seq != 0 {
		c.items = append(c.items, items...)
	}
}

// since returns the items recorded since the read that returned token,
// ascending and deduplicated, and starts the next interval.
func (c *changeLog[T]) since(token uint64) (items []T, next uint64, ok bool) {
	if ok = token != 0 && token == c.seq; ok {
		slices.Sort(c.items)
		items = slices.Compact(c.items)
	}
	c.items = nil
	c.seq++
	return items, c.seq, ok
}
