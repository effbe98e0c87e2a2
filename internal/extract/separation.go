package extract

import (
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"cnprobase/internal/corpus"
	"cnprobase/internal/runes"
	"cnprobase/internal/segment"
)

// cutBufPool recycles token and compound buffers for the calls the
// extractors make from concurrent batch workers; the strings themselves
// are consumed (filtered/copied) before the buffer is returned.
var cutBufPool = sync.Pool{New: func() any { return new([]string) }}

// Separator implements the paper's separation algorithm (Section II,
// Figure 3): given the noun compound inside an entity's disambiguation
// bracket, segment it into words (x1 … xn), build a binary tree by
// PMI-guided adjacent merging with a right-to-left sliding window, and
// read the hypernyms off the leaves/constituents along the tree's
// rightmost path.
//
// A compound's tree depends only on the segmenter and the statistics,
// which a Separator fixes, so it separates each distinct compound once
// and answers repeats from a memo. It is safe for concurrent use.
type Separator struct {
	seg   *segment.Segmenter
	stats *corpus.Stats

	mu   sync.Mutex
	memo map[string]Tree
}

// NewSeparator builds a Separator from the segmenter and corpus
// statistics that supply PMI. Its memo lives as long as it does, so
// build one per segmenter and statistics generation.
func NewSeparator(seg *segment.Segmenter, stats *corpus.Stats) *Separator {
	return &Separator{seg: seg, stats: stats, memo: make(map[string]Tree)}
}

// node is a binary-tree node over the word sequence.
type node struct {
	text        string
	first, last string // boundary words, for PMI between merged nodes
	left, right *node  // nil for leaves
}

func leaf(w string) *node { return &node{text: w, first: w, last: w} }

func merge(a, b *node) *node {
	return &node{text: a.text + b.text, first: a.first, last: b.last, left: a, right: b}
}

// pmi scores adjacency between two (possibly merged) nodes by the PMI
// of the boundary words across the join, the standard reduction for
// compound bracketing.
func (s *Separator) pmi(a, b *node) float64 { return s.stats.PMI(a.last, b.first) }

// Tree exposes the separation result for one compound: the word
// sequence and the hypernym strings read off the rightmost path.
type Tree struct {
	Words     []string
	Hypernyms []string
}

// Separate runs the algorithm on one 、-free noun compound and returns
// its tree summary. Compounds of fewer than two words trivially yield
// the word itself. Repeats of a compound share one Tree, which callers
// must not modify.
func (s *Separator) Separate(compound string) Tree {
	s.mu.Lock()
	t, ok := s.memo[compound]
	s.mu.Unlock()
	if !ok {
		t = s.separate(compound)
		s.mu.Lock()
		s.memo[compound] = t
		s.mu.Unlock()
	}
	return t
}

// separate is Separate without the memo.
func (s *Separator) separate(compound string) Tree {
	bufp := cutBufPool.Get().(*[]string)
	toks := s.seg.CutAppend((*bufp)[:0], compound)
	var words []string
	for _, w := range toks {
		if segment.IsContentToken(w) {
			words = append(words, w)
		}
	}
	*bufp = toks
	cutBufPool.Put(bufp)
	t := Tree{Words: words}
	if len(words) == 0 {
		return t
	}
	root := s.buildTree(words)
	t.Hypernyms = rightSpine(root)
	return t
}

// buildTree performs the PMI-guided merging. Each pass slides a
// three-element window right-to-left (steps 1–3 of the paper); the
// boundary rule (step 4) merges the leftmost pair when its cohesion
// beats its right neighbor. If a full pass merges nothing (flat PMI
// landscape), the globally best-PMI adjacent pair merges, which
// guarantees termination in n−1 merges.
func (s *Separator) buildTree(words []string) *node {
	nodes := make([]*node, len(words))
	for i, w := range words {
		nodes[i] = leaf(w)
	}
	for len(nodes) > 1 {
		merged := false
		// Right-to-left window (x_{i-1}, x_i, x_{i+1}).
		for i := len(nodes) - 2; i >= 1; i-- {
			if i+1 >= len(nodes) {
				continue // slice shrank behind the window
			}
			if s.pmi(nodes[i-1], nodes[i]) < s.pmi(nodes[i], nodes[i+1]) {
				nodes[i] = merge(nodes[i], nodes[i+1])
				nodes = append(nodes[:i+1], nodes[i+2:]...)
				merged = true
			}
		}
		if len(nodes) == 1 {
			break
		}
		// Step 4 boundary rule at the leftmost window.
		if len(nodes) >= 3 && s.pmi(nodes[0], nodes[1]) > s.pmi(nodes[1], nodes[2]) {
			nodes[0] = merge(nodes[0], nodes[1])
			nodes = append(nodes[:1], nodes[2:]...)
			merged = true
		} else if len(nodes) == 2 {
			nodes[0] = merge(nodes[0], nodes[1])
			nodes = nodes[:1]
			merged = true
		}
		if !merged {
			// Flat landscape: merge the most cohesive adjacent pair.
			best, bestPMI := 0, s.pmi(nodes[0], nodes[1])
			for i := 1; i+1 < len(nodes); i++ {
				if p := s.pmi(nodes[i], nodes[i+1]); p > bestPMI {
					best, bestPMI = i, p
				}
			}
			nodes[best] = merge(nodes[best], nodes[best+1])
			nodes = append(nodes[:best+1], nodes[best+2:]...)
		}
	}
	return nodes[0]
}

// rightSpine collects the hypernym strings along the rightmost path of
// the tree, excluding the root (the full compound including modifiers):
// for ((蚂蚁金服)((首席)(战略官))) it yields 首席战略官 and 战略官.
// A single-leaf tree yields the leaf itself.
func rightSpine(root *node) []string {
	if root.right == nil {
		if validHypernym(root.text) {
			return []string{root.text}
		}
		return nil
	}
	var out []string
	for cur := root.right; cur != nil; cur = cur.right {
		if validHypernym(cur.text) {
			out = append(out, cur.text)
		}
		if cur.right == nil {
			break
		}
	}
	return out
}

// splitCompounds appends to dst the compounds of a bracket: its parts
// between enumeration separators (、/，/,/;), since brackets routinely
// enumerate several roles (中国香港男演员、歌手、词作人), space-trimmed,
// the empty ones dropped.
func splitCompounds(dst []string, bracket string) []string {
	start := 0
	for i, r := range bracket {
		switch r {
		case '、', '，', ',', '；', ';', '/', ' ':
			if p := strings.TrimSpace(bracket[start:i]); p != "" {
				dst = append(dst, p)
			}
			start = i + utf8.RuneLen(r)
		}
	}
	if p := strings.TrimSpace(bracket[start:]); p != "" {
		dst = append(dst, p)
	}
	return dst
}

// Hypernyms runs the separation algorithm on a page's bracket and
// returns the hypernyms it proposes for the page's disambiguated
// entity, each once, in bracket order.
func (s *Separator) Hypernyms(title, bracket string) []string {
	bufp := cutBufPool.Get().(*[]string)
	parts := splitCompounds((*bufp)[:0], bracket)
	var out []string
	for _, part := range parts {
		t := s.Separate(part)
		for _, h := range t.Hypernyms {
			if h == title || slices.Contains(out, h) || !runes.AllHan(h) {
				continue
			}
			out = append(out, h)
		}
	}
	*bufp = parts
	cutBufPool.Put(bufp)
	return out
}
