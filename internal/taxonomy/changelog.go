package taxonomy

import "slices"

// changeLog accumulates the names written to a store between two reads
// by its one consumer, so the consumer can bring a derived structure
// (the serving view) up to date from the delta instead of re-reading
// the store. It records nothing until the consumer's first read: a
// build that is never frozen retains no names. Reads are chained by a
// token; a read whose token is not the one the previous read returned
// — the first read, or a second consumer — gets ok=false and must fall
// back to a full re-read. Callers provide the locking.
type changeLog struct {
	seq   uint64 // token of the last read; 0 = never read, not recording
	names []string
}

func (c *changeLog) tracking() bool { return c.seq != 0 }

func (c *changeLog) record(names ...string) {
	if c.seq != 0 {
		c.names = append(c.names, names...)
	}
}

// since returns the names recorded since the read that returned token,
// ascending and deduplicated, and starts the next interval.
func (c *changeLog) since(token uint64) (names []string, next uint64, ok bool) {
	if ok = token != 0 && token == c.seq; ok {
		slices.Sort(c.names)
		names = slices.Compact(c.names)
	}
	c.names = nil
	c.seq++
	return names, c.seq, ok
}
