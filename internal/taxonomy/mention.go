package taxonomy

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"cnprobase/internal/trie"
)

// MentionIndex maps surface mentions (titles, aliases) to disambiguated
// entity IDs: the build side of the men2ent API of the paper's Table II.
// Its own trie scan, FindAll, has no production caller: it is the
// independent oracle the serving, conceptualize, qa and api tests hold
// the view's text matcher and the application engines to.
type MentionIndex struct {
	mu       sync.RWMutex
	mentions map[string][]string // mention → entity IDs
	// dict is the text scanner's dictionary. Only FindAll reads it, and
	// only tests call FindAll here (a view compiles its own dictionary),
	// so it is built by the first scan and kept current from then on;
	// nil until then.
	dict    *trie.Trie
	changes changeLog[string] // mentions whose ID list grew; see ChangesSince
}

// NewMentionIndex returns an empty index.
func NewMentionIndex() *MentionIndex {
	return &MentionIndex{mentions: make(map[string][]string)}
}

// Add registers a mention for an entity ID. Duplicate (mention, id)
// pairs are ignored. The mention is stored trimmed and in its
// rune-decoded spelling: each byte that is not valid UTF-8 becomes
// U+FFFD, as a text scan reads it, so every mention table is valid
// UTF-8 — what a view's byte-wise scan and the snapshot image require.
func (m *MentionIndex) Add(mention, entityID string) {
	mention = strings.TrimSpace(mention)
	if !utf8.ValidString(mention) {
		mention = string([]rune(mention))
	}
	if mention == "" || entityID == "" {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, id := range m.mentions[mention] {
		if id == entityID {
			return
		}
	}
	m.mentions[mention] = append(m.mentions[mention], entityID)
	if m.dict != nil {
		m.dict.Insert(mention)
	}
	m.changes.record(mention)
}

// ImportSorted fills an empty index with a serving image's mention
// table — entries ascending and distinct, mentions trimmed, non-empty
// and valid UTF-8, each ID list ascending and distinct — in one pass: what
// Add would do for every (mention, ID), with one map insert a mention
// and no duplicate scans. The ID lists are kept, not copied; their
// capacity is clamped, so a later Add never writes into them.
func (m *MentionIndex) ImportSorted(entries []MentionEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range entries {
		m.mentions[e.Mention] = e.IDs[:len(e.IDs):len(e.IDs)]
		if m.dict != nil {
			m.dict.Insert(e.Mention)
		}
		m.changes.record(e.Mention)
	}
}

// ChangesSince returns the mentions whose entity-ID list grew since
// the call that returned token, ascending and without duplicates, plus
// the token for the next call — the mention-side counterpart of
// Taxonomy.ChangesSince, with the same contract: ok is false when token
// does not name the previous call, and nothing is recorded before the
// first call.
func (m *MentionIndex) ChangesSince(token uint64) (mentions []string, next uint64, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.changes.since(token)
}

// Lookup returns the entity IDs a mention may refer to, sorted.
func (m *MentionIndex) Lookup(mention string) []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := append([]string(nil), m.mentions[strings.TrimSpace(mention)]...)
	sort.Strings(out)
	return out
}

// Size returns the number of distinct mentions.
func (m *MentionIndex) Size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.mentions)
}

// MentionEntry is one mention → entity-ID mapping in an exported
// partition.
type MentionEntry struct {
	Mention string
	IDs     []string
}

// Sorted returns the whole index in canonical order: one entry per
// mention, ascending by mention, each with its entity IDs ascending —
// the mention table of a serving view, ready-made. The ID lists share
// one backing array.
func (m *MentionIndex) Sorted() []MentionEntry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	mentions := make([]string, 0, len(m.mentions))
	total := 0
	for mention, ids := range m.mentions {
		mentions = append(mentions, mention)
		total += len(ids)
	}
	slices.Sort(mentions)
	out := make([]MentionEntry, len(mentions))
	flat := make([]string, 0, total)
	for i, mention := range mentions {
		from := len(flat)
		flat = append(flat, m.mentions[mention]...)
		ids := flat[from:len(flat):len(flat)]
		slices.Sort(ids)
		out[i] = MentionEntry{Mention: mention, IDs: ids}
	}
	return out
}

// FindAll scans text and returns the distinct mentions found, using
// greedy longest-match from each position.
func (m *MentionIndex) FindAll(text string) []string {
	return m.FindAllAppend(nil, text)
}

// FindAllAppend is FindAll in append style: found mentions are
// appended to dst and the extended slice is returned. Deduplication
// applies to the mentions appended by this call, not to dst's prior
// contents. serving.View.FindAllAppend is the allocation-free
// equivalent on the immutable view, and this one is its test oracle.
func (m *MentionIndex) FindAllAppend(dst []string, text string) []string {
	m.mu.RLock()
	if m.dict == nil {
		m.mu.RUnlock()
		m.buildDict()
		m.mu.RLock()
	}
	defer m.mu.RUnlock()
	rs := []rune(text)
	base := len(dst)
	for i := 0; i < len(rs); {
		l := m.dict.LongestFrom(rs, i)
		if l == 0 {
			i++
			continue
		}
		w := string(rs[i : i+l])
		found := false
		for _, x := range dst[base:] {
			if x == w {
				found = true
				break
			}
		}
		if !found {
			dst = append(dst, w)
		}
		i += l
	}
	return dst
}

// buildDict builds the scan dictionary from the mentions indexed so
// far, unless another scan got there first.
func (m *MentionIndex) buildDict() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dict != nil {
		return
	}
	m.dict = trie.New()
	for mention := range m.mentions {
		m.dict.Insert(mention)
	}
}
