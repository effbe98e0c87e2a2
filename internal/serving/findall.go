package serving

import (
	"strings"
	"sync"
	"unicode/utf8"
)

// Text scanning over the view's mention table — the primitive the
// conceptualization and QA engines run on. Every view, compiled,
// folded or mapped, scans the same way: from each rune position it
// seeks a growing byte prefix in the sorted mention table, behind a
// first-rune filter — and a view with a delta in the delta's table too,
// whose row for a mention stands in for the base's. The scan answers
// exactly like a trie scan of the same mentions (the serving tests'
// oracle): greedy longest-match from each rune position, distinct
// surfaces in first-occurrence order. Like every other View
// query it takes no locks, and the append forms allocate nothing on
// the steady path.

// Found is one distinct surface a text scan found, with its row in the
// view's mention table (MentionEntities resolves it), so a caller never
// looks the surface up again.
type Found struct {
	Surface string
	Row     int32
}

// findScratch is the pooled per-call state of a scan: the decoded rune
// buffer, the parallel byte-offset table that lets matched spans be
// returned as substrings of the input, and FindAllAppend's staging
// slice.
type findScratch struct {
	rs    []rune
	offs  []int
	found []Found
}

var findPool = sync.Pool{New: func() any { return new(findScratch) }}

// maxPooledRunes bounds the scratch a scan hands back to the pool. The
// buffers grow to the longest text seen (12 B per rune) and a cycling
// pool entry is never dropped, so without a bound one body-cap-sized
// request would park tens of megabytes per P for the life of the
// process; scratch grown past the bound is left to the collector.
const maxPooledRunes = 64 << 10

// release returns the scratch to the pool unless a long text grew it
// past the bound.
//
//cnp:noalloc
func (sc *findScratch) release() {
	if cap(sc.rs) > maxPooledRunes || cap(sc.offs) > maxPooledRunes || cap(sc.found) > maxPooledRunes {
		return
	}
	findPool.Put(sc)
}

// FindAll scans text and returns the distinct mentions found, using
// greedy longest-match from each position — exactly like a trie scan
// of the same mention set. Nil when nothing matches.
func (v *View) FindAll(text string) []string { return v.FindAllAppend(nil, text) }

// FindAllAppend is FindAll in append style: found mentions are
// appended to dst (which may be a recycled scratch slice) and the
// extended slice is returned. Each appended mention is a byte-offset
// substring of text, so a steady-state caller with a warm dst
// allocates nothing. Deduplication applies to the mentions appended by
// this call, not to dst's prior contents.
//
//cnp:noalloc
func (v *View) FindAllAppend(dst []string, text string) []string {
	if v.MentionCount() == 0 || text == "" {
		return dst
	}
	sc := findPool.Get().(*findScratch)
	sc.found = v.scan(sc, sc.found[:0], text)
	for i := range sc.found {
		dst = append(dst, sc.found[i].Surface)
	}
	sc.release()
	return dst
}

// FindMentionsAppend is FindAllAppend returning each surface with its
// mention-table row — the scan the application engines call, so that
// no surface is resolved a second time.
//
//cnp:noalloc
func (v *View) FindMentionsAppend(dst []Found, text string) []Found {
	if v.MentionCount() == 0 || text == "" {
		return dst
	}
	sc := findPool.Get().(*findScratch)
	dst = v.scan(sc, dst, text)
	sc.release()
	return dst
}

// MentionEntities returns the entities of mention-table row as node
// IDs in name order (CompareIDs) — what Lookup answers for that row's
// mention, by Name. row is one MentionRow or a scan handed out: on a
// view with a delta, the delta's rows are numbered past the base's and
// stand in for the base's rows of the same mentions. The returned slice
// is shared: do not modify it.
//
//cnp:noalloc
func (v *View) MentionEntities(row int32) []uint32 {
	m := v
	if d := v.delta; d != nil && int(row) >= v.mentions.len() {
		m, row = &d.rows, row-int32(v.mentions.len())
	}
	return m.mentionEnts[m.mentionOff[row]:m.mentionOff[row+1]]
}

// scan is the one greedy matcher behind both append forms.
//
//cnp:noalloc
func (v *View) scan(sc *findScratch, dst []Found, text string) []Found {
	rs, offs := sc.rs[:0], sc.offs[:0]
	clean := true // no invalid UTF-8 seen
	for bi, r := range text {
		if r == utf8.RuneError {
			clean = clean && validRuneAt(text, bi)
		}
		rs = append(rs, r)
		offs = append(offs, bi)
	}
	if !clean {
		// Invalid input bytes decode to U+FFFD; scan the re-encoded runes
		// so surfaces match a rune-wise trie scan byte for byte.
		//cnp:allow noallochot (cold path: only texts carrying invalid UTF-8)
		text = string(rs)
		offs = offs[:0]
		for bi := range text {
			offs = append(offs, bi)
		}
	}
	offs = append(offs, len(text))
	base := len(dst)
	for i := 0; i < len(rs); {
		var l int
		var row int32
		if v.mentionFirst.has(rs[i]) {
			l, row = v.longestMentionFrom(text, offs, i)
			if d := v.delta; d != nil {
				// A delta row replaces the base's row of its mention.
				if dl, drow := d.rows.longestMentionFrom(text, offs, i); dl > 0 && dl >= l {
					l, row = dl, drow+int32(v.mentions.len())
				}
			}
		}
		if l == 0 {
			i++
			continue
		}
		w := text[offs[i]:offs[i+l]]
		if !containsSurface(dst[base:], w) {
			dst = append(dst, Found{Surface: w, Row: row})
		}
		i += l
	}
	sc.rs, sc.offs = rs, offs
	return dst
}

// validRuneAt reports whether the rune starting at byte offset i of s
// is a well-formed encoding (a literal U+FFFD is valid; a decode error
// is not).
//
//cnp:noalloc
func validRuneAt(s string, i int) bool {
	r, size := utf8.DecodeRuneInString(s[i:])
	return !(r == utf8.RuneError && size == 1)
}

// containsSurface reports whether xs already holds the surface w.
// Found counts per text are tiny, so a linear scan beats a map (and
// allocates nothing).
//
//cnp:noalloc
func containsSurface(xs []Found, w string) bool {
	for i := range xs {
		if xs[i].Surface == w {
			return true
		}
	}
	return false
}

// runeSet is the filter in front of the text scan: bit r&0xFFFF
// is set when some mention starts with rune r, so a text position whose
// rune starts no mention costs one bit test instead of binary searches
// over the whole table. Runes beyond the BMP fold onto it — a false
// positive only costs the search the filter would have saved.
type runeSet []uint64

//cnp:noalloc
func (s runeSet) has(r rune) bool { return s[(r&0xFFFF)>>6]&(1<<(r&63)) != 0 }

// add sets the bit of m's first rune.
func (s runeSet) add(m string) {
	r, _ := utf8.DecodeRuneInString(m)
	s[(r&0xFFFF)>>6] |= 1 << (r & 63)
}

// firstRuneSet collects the first rune of every mention in one pass
// over the table. Derived state: never stored in an image.
func firstRuneSet(mentions table) runeSet {
	set := make(runeSet, runeSetWords)
	for i := 0; i < mentions.len(); i++ {
		set.add(mentions.at(i))
	}
	return set
}

// runeSetWords is a runeSet's length: one bit per BMP rune.
const runeSetWords = 0x10000 / 64

// longestMentionFrom is the greedy matcher: the length (in runes) and
// table row of the longest mention starting at rune start of text,
// found by seeking, one rune at a time, the first entry of the sorted
// mention table not below the prefix read so far. offs holds the byte
// offset of every rune of text, then len(text).
//
// Every mention is valid UTF-8, so byte order over the table equals
// decoded-rune order and this scan matches a rune-wise trie exactly —
// including on text whose invalid bytes decoded to U+FFFD: scan
// re-encodes such text before any comparison, just as the taxonomy
// stores a mention's invalid bytes as U+FFFD.
//
//cnp:noalloc
func (v *View) longestMentionFrom(text string, offs []int, start int) (int, int32) {
	at := 0
	best, row := 0, int32(-1)
	for i := start + 1; i < len(offs); i++ {
		p := text[offs[start]:offs[i]]
		if at = v.mentions.seekPrefix(at, p); at < 0 {
			break
		}
		if len(v.mentions.at(at)) == len(p) {
			// The first carrier of the prefix has its length: it IS the
			// prefix — a terminal in trie terms.
			best, row = i-start, int32(at)
		}
	}
	return best, row
}

// seekPrefix returns the index of the first entry of the ascending
// table t[from:] that carries the prefix p, or -1 when none does. It
// is how a prefix is narrowed a rune at a time without ever finding
// where its carriers end: the carriers of a longer prefix start at or
// after the first carrier of the shorter one, so the next call resumes
// from this one's answer.
//
//cnp:noalloc
func (t table) seekPrefix(from int, p string) int {
	if i := t.seek(from, p); i < t.len() && strings.HasPrefix(t.at(i), p) {
		return i
	}
	return -1
}

// seek returns the index of the first entry of the ascending table
// t[from:] that is not below s (t.len() when all are). A search from
// the table's start bisects it; one resumed from an earlier answer
// (from > 0) expects its own close by and gallops — a few comparisons
// when it is, twice a bisection's when it is not. Hand-rolled (no
// sort.Search closure) to keep the callers at 0 allocs/op.
//
//cnp:noalloc
func (t table) seek(from int, s string) int {
	lo, hi := from, t.len()
	if from > 0 {
		step := 1
		for lo+step < hi && t.at(lo+step) < s {
			lo += step
			step <<= 1
		}
		hi = min(lo+step, hi)
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.at(mid) < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
