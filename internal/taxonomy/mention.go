package taxonomy

import (
	"sort"
	"strings"
	"sync"

	"cnprobase/internal/trie"
)

// MentionIndex maps surface mentions (titles, aliases) to disambiguated
// entity IDs: the men2ent API of the paper's Table II. It also answers
// "which mentions occur inside this text", which the QA-coverage
// experiment needs.
type MentionIndex struct {
	mu       sync.RWMutex
	mentions map[string][]string // mention → entity IDs
	dict     *trie.Trie
	changes  changeLog // mentions whose ID list grew; see ChangesSince
}

// NewMentionIndex returns an empty index.
func NewMentionIndex() *MentionIndex {
	return &MentionIndex{mentions: make(map[string][]string), dict: trie.New()}
}

// Add registers a mention for an entity ID. Duplicate (mention, id)
// pairs are ignored.
func (m *MentionIndex) Add(mention, entityID string) {
	mention = strings.TrimSpace(mention)
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
	m.dict.Insert(mention)
	m.changes.record(mention)
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

// ExportPartitions splits the index into n hash partitions: entry i
// holds the mentions with fnv32a(mention) % n == i, each with a copy of
// its ID list. Like Taxonomy.ExportPartitions, the split depends only
// on the logical content and n; entry order within a partition is
// unspecified and ID lists keep their insertion order (Lookup sorts, so
// ID order is not query-visible).
func (m *MentionIndex) ExportPartitions(n int) [][]MentionEntry {
	if n <= 0 {
		n = 1
	}
	parts := make([][]MentionEntry, n)
	m.mu.RLock()
	defer m.mu.RUnlock()
	for mention, ids := range m.mentions {
		i := fnv32a(mention) % uint32(n)
		parts[i] = append(parts[i], MentionEntry{Mention: mention, IDs: append([]string(nil), ids...)})
	}
	return parts
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
// equivalent on the immutable view.
func (m *MentionIndex) FindAllAppend(dst []string, text string) []string {
	m.mu.RLock()
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
