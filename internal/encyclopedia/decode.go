package encyclopedia

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"unicode/utf8"
)

// maxLine bounds one JSONL line, newline included.
const maxLine = 4 << 20

// testHookFallback, when set, is called for every line ReadJSONL hands
// to encoding/json.
var testHookFallback func()

// ReadJSONL reads a corpus written by WriteJSONL. Lines are trimmed of
// white space and blank lines skipped; a malformed line aborts with an
// error naming the line. A line must be shorter than 4 MiB; a longer one
// fails with an error naming it that wraps bufio.ErrTooLong.
//
// A line in the canonical form WriteJSONL writes is decoded in one pass
// over its bytes: one object keyed title, bracket, abstract, infobox
// and tags, each at most once, in any order; infobox a non-empty array
// of objects keyed s, p and o, each at most once; tags a non-empty array
// of strings; every string free of escapes and control bytes; the line
// valid UTF-8. Any other line (an escape, a null, an empty array, an
// unknown, duplicate or case-variant key, trailing bytes, a syntax
// error) goes to encoding/json whole, so error texts and odd-input
// semantics are the decoder's. FuzzCorpusDecoding holds the two equal.
//
// Each field value is a string of its own, never a substring of the
// input, so a kept title pins nothing else. A subject equal to the
// previous triple's is that same string, and predicates and tags are
// interned for the call. Infobox and Tags are sized exactly.
func ReadJSONL(r io.Reader) (*Corpus, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), maxLine)
	var c Corpus
	ps := pageScanner{names: map[string]string{}}
	line := 0
	for sc.Scan() {
		line++
		b := bytes.TrimSpace(sc.Bytes())
		if len(b) == 0 {
			continue
		}
		p, ok := ps.page(b)
		if !ok {
			if testHookFallback != nil {
				testHookFallback()
			}
			p = Page{}
			if err := json.Unmarshal(b, &p); err != nil {
				return nil, fmt.Errorf("encyclopedia: line %d: %w", line, err)
			}
		}
		c.Pages = append(c.Pages, p)
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, fmt.Errorf("encyclopedia: line %d: longer than %d MiB: %w", line+1, maxLine>>20, err)
		}
		return nil, fmt.Errorf("encyclopedia: scan: %w", err)
	}
	return &c, nil
}

// A pageScanner decodes canonical page lines. Its scratch slices and
// the intern table live for one ReadJSONL call.
type pageScanner struct {
	triples []Triple
	tags    []string
	names   map[string]string // interned predicates and tags
	subject string            // the last subject decoded
}

// page decodes b when it is a canonical page line; ok is false for
// anything else, which the caller hands to encoding/json.
func (ps *pageScanner) page(b []byte) (p Page, ok bool) {
	if !utf8.Valid(b) {
		return p, false
	}
	i, ok := object(b, skipSpace(b, 0), func(key []byte, i int) (field, next int, ok bool) {
		str := func(dst *string, field int) (int, int, bool) {
			s, next, ok := scanString(b, i)
			*dst = string(s)
			return field, next, ok
		}
		switch string(key) {
		case "title":
			return str(&p.Title, 1)
		case "bracket":
			return str(&p.Bracket, 2)
		case "abstract":
			return str(&p.Abstract, 4)
		case "infobox":
			ps.triples = ps.triples[:0]
			i, ok = array(b, i, func(i int) (int, bool) {
				t, i, ok := ps.triple(b, i)
				ps.triples = append(ps.triples, t)
				return i, ok
			})
			p.Infobox = exact(ps.triples)
			return 8, i, ok
		case "tags":
			ps.tags = ps.tags[:0]
			i, ok = array(b, i, func(i int) (int, bool) {
				s, i, ok := scanString(b, i)
				ps.tags = append(ps.tags, ps.intern(s))
				return i, ok
			})
			p.Tags = exact(ps.tags)
			return 16, i, ok
		}
		return 0, i, false
	})
	return p, ok && skipSpace(b, i) == len(b)
}

// triple decodes the triple object at b[i].
func (ps *pageScanner) triple(b []byte, i int) (t Triple, _ int, ok bool) {
	i, ok = object(b, i, func(key []byte, i int) (field, next int, ok bool) {
		s, i, ok := scanString(b, i)
		switch string(key) {
		case "s":
			if string(s) != ps.subject {
				ps.subject = string(s)
			}
			t.Subject = ps.subject
			return 1, i, ok
		case "p":
			t.Predicate = ps.intern(s)
			return 2, i, ok
		case "o":
			t.Object = string(s)
			return 4, i, ok
		}
		return 0, i, false
	})
	return t, i, ok
}

// intern returns the call's one copy of s.
func (ps *pageScanner) intern(s []byte) string {
	if v, ok := ps.names[string(s)]; ok {
		return v
	}
	v := string(s)
	ps.names[v] = v
	return v
}

// exact returns a copy of scratch sized to its length.
func exact[T any](scratch []T) []T {
	out := make([]T, len(scratch))
	copy(out, scratch)
	return out
}

// object reads the non-empty JSON object at b[i] and returns the offset
// past it. value decodes the value of key at b[i] and returns the
// field's bit, one per known key, or 0 for an unknown key; ok is false
// when value fails or a key repeats.
func object(b []byte, i int, value func(key []byte, i int) (field, next int, ok bool)) (int, bool) {
	if i == len(b) || b[i] != '{' {
		return i, false
	}
	i = skipSpace(b, i+1)
	for seen, more := 0, true; more; {
		key, next, ok := scanString(b, i)
		if i = skipSpace(b, next); !ok || i == len(b) || b[i] != ':' {
			return i, false
		}
		var field int
		if field, i, ok = value(key, skipSpace(b, i+1)); !ok || field&seen != 0 {
			return i, false
		}
		seen |= field
		if i, more, ok = separator(b, i, '}'); !ok {
			return i, false
		}
	}
	return i, true
}

// array reads the non-empty JSON array at b[i], calling elem for each
// element, and returns the offset past it.
func array(b []byte, i int, elem func(i int) (next int, ok bool)) (int, bool) {
	if i == len(b) || b[i] != '[' {
		return i, false
	}
	i = skipSpace(b, i+1)
	for more, ok := true, true; more; {
		if i, ok = elem(i); !ok {
			return i, false
		}
		if i, more, ok = separator(b, i, ']'); !ok {
			return i, false
		}
	}
	return i, true
}

// scanString reads the JSON string at b[i] and returns its bytes with
// the offset past its closing quote. ok is false unless the string has
// no escape and no control byte; the caller has checked the line is
// valid UTF-8, so the string decodes to itself.
func scanString(b []byte, i int) (_ []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c == '\\' || c < ' ':
			return nil, j, false
		}
	}
	return nil, len(b), false
}

// separator reads what follows a value at b[i] inside an object or an
// array: a comma, after which more is true, or the closing byte.
// It returns the offset of the next value, or the one past close.
func separator(b []byte, i int, close byte) (next int, more, ok bool) {
	if i = skipSpace(b, i); i == len(b) {
		return i, false, false
	}
	switch b[i] {
	case ',':
		return skipSpace(b, i+1), true, true
	case close:
		return i + 1, false, true
	}
	return i, false, false
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON white space.
func skipSpace(b []byte, i int) int {
	for ; i < len(b); i++ {
		if c := b[i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			break
		}
	}
	return i
}
