// Package encyclopedia defines the data model of a Chinese encyclopedia
// dump in the CN-DBpedia style the paper consumes: each page has a
// title, an optional disambiguation bracket, an abstract, infobox SPO
// triples and tags (paper, Figure 1). Dumps are read and written as
// JSON Lines, one page per line.
// WriteJSONL encodes with encoding/json; ReadJSONL decodes the lines it
// writes with a one-pass scanner and any other line with encoding/json,
// to the same corpus, sharing strings that repeat across pages.
package encyclopedia

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Triple is one infobox SPO triple, e.g.
// <刘德华, 职业, 演员>.
type Triple struct {
	Subject   string `json:"s"`
	Predicate string `json:"p"`
	Object    string `json:"o"`
}

// Page is one encyclopedia page: the unit of extraction.
type Page struct {
	// Title is the entity name, e.g. 刘德华.
	Title string `json:"title"`
	// Bracket is the disambiguation noun compound that follows the
	// title, e.g. 中国香港男演员、歌手、词作人. Empty when the page is not
	// disambiguated.
	Bracket string `json:"bracket,omitempty"`
	// Abstract is the free-text summary paragraph.
	Abstract string `json:"abstract,omitempty"`
	// Infobox holds the page's SPO triples; Subject equals Title.
	Infobox []Triple `json:"infobox,omitempty"`
	// Tags are the page's category-like labels.
	Tags []string `json:"tags,omitempty"`
}

// ID returns the disambiguated entity identifier of the page:
// 标题（括号） when a bracket is present, else the bare title. This is the
// entity-name convention of Figure 1(a).
func (p *Page) ID() string { return EntityID(p.Title, p.Bracket) }

// EntityID composes a disambiguated entity identifier.
func EntityID(title, bracket string) string {
	if bracket == "" {
		return title
	}
	return title + "（" + bracket + "）"
}

// ParseEntityID splits a disambiguated identifier back into title and
// bracket. IDs without a bracket return an empty bracket.
func ParseEntityID(id string) (title, bracket string) {
	open := strings.Index(id, "（")
	if open < 0 || !strings.HasSuffix(id, "）") {
		return id, ""
	}
	title = id[:open]
	bracket = strings.TrimSuffix(id[open+len("（"):], "）")
	return title, bracket
}

// Corpus is an in-memory encyclopedia dump.
type Corpus struct {
	Pages []Page
}

// Len returns the number of pages.
func (c *Corpus) Len() int { return len(c.Pages) }

// TripleCount returns the total number of infobox triples.
func (c *Corpus) TripleCount() int {
	n := 0
	for i := range c.Pages {
		n += len(c.Pages[i].Infobox)
	}
	return n
}

// TagCount returns the total number of tags.
func (c *Corpus) TagCount() int {
	n := 0
	for i := range c.Pages {
		n += len(c.Pages[i].Tags)
	}
	return n
}

// AbstractCount returns the number of pages with a non-empty abstract.
func (c *Corpus) AbstractCount() int {
	n := 0
	for i := range c.Pages {
		if c.Pages[i].Abstract != "" {
			n++
		}
	}
	return n
}

// BracketCount returns the number of pages with a disambiguation
// bracket.
func (c *Corpus) BracketCount() int {
	n := 0
	for i := range c.Pages {
		if c.Pages[i].Bracket != "" {
			n++
		}
	}
	return n
}

// WriteJSONL writes the corpus as JSON Lines.
func (c *Corpus) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range c.Pages {
		if err := enc.Encode(&c.Pages[i]); err != nil {
			return fmt.Errorf("encyclopedia: encode page %d (%s): %w", i, c.Pages[i].Title, err)
		}
	}
	return bw.Flush()
}
