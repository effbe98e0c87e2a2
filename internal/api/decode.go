package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"strings"
	"unicode/utf8"
)

// Request decoding on the query plane. A POST body is read once, whole,
// into the request's scratch under the MaxBatchBytes cap; a one-pass
// scanner then decodes the canonical request forms — a JSON string
// array, or an object holding just the one string field of
// ConceptualizeRequest or QARequest — with every string free of escapes
// and valid UTF-8. Any other body, malformed or merely unusual, goes to
// encoding/json, so error texts and odd-input semantics are the
// decoder's. FuzzRequestDecoding holds the scanner to the decoder.

// requirePost answers 405 with Allow to anything but a POST.
func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method == http.MethodPost {
		return true
	}
	w.Header().Set("Allow", http.MethodPost)
	writeError(w, http.StatusMethodNotAllowed, r.URL.Path+" requires POST with a JSON body")
	return false
}

// readBody reads the request body into sc.body under the MaxBatchBytes
// cap and keeps it as one string, sc.in: every string the scanner
// decodes is a substring of it, so a request costs one string however
// many it carries. sc.inErr is what cut the read short, if anything.
//
// The buffer grows only as bytes arrive, as io.ReadAll's does, never to
// a Content-Length the client declares. The loop calls Read itself
// rather than handing the reader to bytes.Buffer.ReadFrom so that the
// MaxBytesReader stays on the stack.
func (sc *scratch) readBody(w http.ResponseWriter, r *http.Request) {
	src := http.MaxBytesReader(w, r.Body, MaxBatchBytes)
	b := sc.body[:0]
	var err error
	for err == nil {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		var n int
		n, err = src.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
	}
	sc.body = b
	if err == io.EOF {
		err = nil
	}
	sc.in, sc.inErr = string(b), err
}

// postStrings decodes a POST body that must be a JSON string array.
func (sc *scratch) postStrings() ([]string, error) {
	if sc.inErr == nil {
		var ok bool
		// Kept even when the scan gives up, so respond clears what it got.
		if sc.strs, ok = scanStrings(sc.strs[:0], sc.in); ok {
			return sc.strs, nil
		}
	}
	return decodeBody[[]string](sc.in, sc.inErr)
}

// A fieldRequest is an object-shaped request body: field names the one
// string field the scanner looks for, and returns its value.
type fieldRequest interface {
	field() (key, value string)
}

func (q ConceptualizeRequest) field() (string, string) { return "text", q.Text }
func (q QARequest) field() (string, string)            { return "question", q.Question }

// postField decodes a POST body that must be a T and returns its one
// field.
func postField[T fieldRequest](sc *scratch) (string, error) {
	var req T
	key, _ := req.field()
	if sc.inErr == nil {
		if s, ok := scanField(sc.in, key); ok {
			return s, nil
		}
	}
	req, err := decodeBody[T](sc.in, sc.inErr)
	_, s := req.field()
	return s, err
}

// decodeBody is the scanner's fallback: encoding/json decodes body,
// followed by readErr when the read was cut short, so an oversized or
// broken body fails exactly where a decoder streaming from the
// connection would. A decode error is the request's 400.
func decodeBody[T any](body string, readErr error) (T, error) {
	var v T
	var in io.Reader = strings.NewReader(body)
	if readErr != nil {
		in = io.MultiReader(in, errReader{readErr})
	}
	if err := json.NewDecoder(in).Decode(&v); err != nil {
		return v, badRequest("bad JSON body: " + err.Error())
	}
	return v, nil
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// scanStrings appends the strings of body to dst when body is a
// canonical JSON string array; ok is false for anything else, which the
// caller hands to encoding/json.
//
//cnp:noalloc
func scanStrings(dst []string, body string) (_ []string, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '[' {
		return dst, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == ']' {
		return dst, skipSpace(body, i+1) == len(body)
	}
	for {
		var s string
		if s, i, ok = scanString(body, i); !ok {
			return dst, false
		}
		dst = append(dst, s)
		if i = skipSpace(body, i); i == len(body) {
			return dst, false
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case ']':
			return dst, skipSpace(body, i+1) == len(body)
		default:
			return dst, false
		}
	}
}

// scanField returns the value of body when body is a canonical JSON
// object holding one string field named key; ok is false for anything
// else, which the caller hands to encoding/json.
//
//cnp:noalloc
func scanField(body, key string) (_ string, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return "", false
	}
	var k, v string
	if k, i, ok = scanString(body, skipSpace(body, i+1)); !ok || k != key {
		return "", false
	}
	if i = skipSpace(body, i); i == len(body) || body[i] != ':' {
		return "", false
	}
	if v, i, ok = scanString(body, skipSpace(body, i+1)); !ok {
		return "", false
	}
	if i = skipSpace(body, i); i == len(body) || body[i] != '}' {
		return "", false
	}
	return v, skipSpace(body, i+1) == len(body)
}

// scanString reads the JSON string starting at body[i] and returns it
// with the offset past its closing quote. ok is false unless the string
// decodes to itself: no escape, no control byte, valid UTF-8.
//
//cnp:noalloc
func scanString(body string, i int) (_ string, next int, ok bool) {
	if i == len(body) || body[i] != '"' {
		return "", i, false
	}
	for j := i + 1; j < len(body); j++ {
		switch c := body[j]; {
		case c == '"':
			s := body[i+1 : j]
			return s, j + 1, utf8.ValidString(s)
		case c == '\\' || c < ' ':
			return "", j, false
		}
	}
	return "", len(body), false
}

// skipSpace returns the offset of the first byte at or after i that is
// not JSON whitespace.
//
//cnp:noalloc
func skipSpace(s string, i int) int {
	for ; i < len(s); i++ {
		if c := s[i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			break
		}
	}
	return i
}

// queryValue is url.ParseQuery(raw).Get(key) in one pass over the raw
// query and, unless the value is escaped, without allocating: pairs
// split on '&', a pair holding ';' or failing to unescape is skipped,
// '+' is a space, and the first value wins.
//
//cnp:noalloc
func queryValue(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, err := url.QueryUnescape(k); err != nil || k != key {
			continue
		}
		if v, err := url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}
