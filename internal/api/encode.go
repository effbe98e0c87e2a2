package api

import (
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"cnprobase/internal/conceptualize"
	"cnprobase/internal/qa"
	"cnprobase/internal/resilience"
	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// The query endpoints encode their answers without reflection: one
// append-style encoder per fixed response shape, writing into the
// request's pooled scratch, which goes to the client in one Write. Each
// encoder produces exactly the bytes encoding/json's Encoder.Encode
// produces for the exported response type — HTML-escaped strings, null
// for a nil slice and [] for an empty one, the omitempty fields, its
// float format — and FuzzResponseEncoding holds them to that.

// jsonContentType is the Content-Type of every JSON answer, shared
// rather than allocated per response: a one-element slice, so no Add can
// append into it.
var jsonContentType = []string{"application/json; charset=utf-8"}

// jsonHeader marks the response as JSON; serve calls it once the
// handler has encoded its answer.
func jsonHeader(w http.ResponseWriter) { w.Header()["Content-Type"] = jsonContentType }

// scratch is a request's pooled working memory: the POST body as read,
// as bytes and as the one string (in) the decoded strings alias, with
// the error that cut the read short (inErr); the strings decoded from
// it; and the encoded response.
type scratch struct {
	body  []byte
	strs  []string
	out   []byte
	in    string
	inErr error
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// maxPooledStrings bounds sc.strs by the same byte budget as the
// buffers: a string header is 16 bytes.
const maxPooledStrings = resilience.MaxPooledBytes / 16

func getScratch() *scratch {
	sc := scratchPool.Get().(*scratch)
	sc.body, sc.out = sc.body[:0], sc.out[:0]
	return sc
}

// chunkingBuffer is the size of net/http's response buffer: a body
// that fits is framed by a Content-Length net/http computes itself when
// the handler returns, and a larger one is sent chunked unless the
// handler sets the length first.
const chunkingBuffer = 2048

// respond writes sc.out, ended by the newline Encoder.Encode writes, as
// the whole body and recycles sc. ok false — an answer holding a NaN or
// infinite score — sends no body, as Encode's error left the response.
// A request answered with an error instead drops its scratch.
func (sc *scratch) respond(w http.ResponseWriter, ok bool) {
	if ok {
		sc.out = append(sc.out, '\n')
		if len(sc.out) > chunkingBuffer {
			w.Header().Set("Content-Length", strconv.Itoa(len(sc.out)))
		}
		_, _ = w.Write(sc.out) // fails only on connection loss; nothing actionable remains
	}
	clear(sc.strs) // they alias the request body
	sc.strs, sc.in, sc.inErr = sc.strs[:0], "", nil
	if cap(sc.body) <= resilience.MaxPooledBytes && cap(sc.out) <= resilience.MaxPooledBytes && cap(sc.strs) <= maxPooledStrings {
		scratchPool.Put(sc)
	}
}

// appendMen2Ent encodes the Men2EntResponse of mention, whose entities
// are the node IDs ids of v, as mentionEntities returns them.
//
//cnp:noalloc
func appendMen2Ent(dst []byte, v *serving.View, mention string, ids []uint32) []byte {
	dst = appendString(append(dst, `{"mention":`...), mention)
	dst = appendNames(append(dst, `,"entities":`...), v, ids)
	return append(dst, '}')
}

// appendConcept encodes the ConceptResponse of entity, node id of v
// with the given hypernyms, as hypernymIDs(v, entity) returns them.
// With ranked, Ranked lists the same hypernyms by typicality, read from
// v by ID entry by entry; a score is a count over a non-zero total, so
// always finite.
//
//cnp:noalloc
func appendConcept(dst []byte, v *serving.View, entity string, id uint32, hypernyms []uint32, ranked bool) []byte {
	dst = appendString(append(dst, `{"entity":`...), entity)
	dst = appendNames(append(dst, `,"hypernyms":`...), v, hypernyms)
	if ranked && len(hypernyms) > 0 {
		dst = append(dst, `,"ranked":[`...)
		for r := range hypernyms {
			if r > 0 {
				dst = append(dst, ',')
			}
			hyper, score := v.RankedHypernymAt(id, r)
			dst = appendString(append(dst, `{"node":`...), v.Name(hyper))
			dst, _ = appendFloat(append(dst, `,"score":`...), score)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// appendEntity encodes the EntityResponse of concept and its hyponyms,
// as hyponymIDs returns them from v.
//
//cnp:noalloc
func appendEntity(dst []byte, v *serving.View, concept string, hyponyms []uint32) []byte {
	dst = appendString(append(dst, `{"concept":`...), concept)
	dst = appendNames(append(dst, `,"hyponyms":`...), v, hyponyms)
	return append(dst, '}')
}

// appendConceptualize encodes the ConceptualizeResponse of text; ok is
// false when a score is not finite.
//
//cnp:noalloc
func appendConceptualize(dst []byte, text string, res *conceptualize.Result) (_ []byte, ok bool) {
	dst = appendString(append(dst, `{"text":`...), text)
	dst = strconv.AppendBool(append(dst, `,"covered":`...), res.Covered())
	if len(res.Mentions) > 0 {
		dst = append(dst, `,"mentions":[`...)
		for i := range res.Mentions {
			m := &res.Mentions[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(append(dst, `{"surface":`...), m.Surface)
			dst = appendString(append(dst, `,"entity":`...), m.Entity)
			dst = strconv.AppendInt(append(dst, `,"candidates":`...), int64(m.Candidates), 10)
			if dst, ok = appendScored(append(dst, `,"concepts":`...), m.Concepts); !ok {
				return dst, false
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	dst, ok = appendScored(append(dst, `,"concepts":`...), res.Concepts)
	return append(dst, '}'), ok
}

// appendQA encodes the QAResponse of question.
//
//cnp:noalloc
func appendQA(dst []byte, question string, u *qa.Understanding) []byte {
	dst = appendString(append(dst, `{"question":`...), question)
	dst = strconv.AppendBool(append(dst, `,"covered":`...), u.Covered)
	if len(u.Mentions) > 0 {
		dst = append(dst, `,"mentions":[`...)
		for i := range u.Mentions {
			m := &u.Mentions[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(append(dst, `{"surface":`...), m.Surface)
			dst = appendStrings(append(dst, `,"entities":`...), m.Entities)
			dst = appendStrings(append(dst, `,"concepts":`...), m.Concepts)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(u.Concepts) > 0 {
		dst = appendStrings(append(dst, `,"concepts":`...), u.Concepts)
	}
	return append(dst, '}')
}

// appendStrings encodes a string slice: null when nil.
//
//cnp:noalloc
func appendStrings(dst []byte, xs []string) []byte {
	if xs == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, x)
	}
	return append(dst, ']')
}

// appendNames encodes the names of nodes ids of v as a string slice:
// null when there are none, as the view's name lists are nil then.
//
//cnp:noalloc
func appendNames(dst []byte, v *serving.View, ids []uint32) []byte {
	if len(ids) == 0 {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, id := range ids {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, v.Name(id))
	}
	return append(dst, ']')
}

// appendScored encodes a ranked list: null when nil; ok is false when a
// score is not finite.
//
//cnp:noalloc
func appendScored(dst []byte, xs []taxonomy.Scored) (_ []byte, ok bool) {
	if xs == nil {
		return append(dst, "null"...), true
	}
	dst = append(dst, '[')
	for i := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(append(dst, `{"node":`...), xs[i].Node)
		if dst, ok = appendFloat(append(dst, `,"score":`...), xs[i].Score); !ok {
			return dst, false
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), true
}

// appendFloat encodes f the way encoding/json does: the shortest 'f'
// form, or 'e' below 1e-6 and from 1e21 up with a one-digit negative
// exponent unpadded. ok is false, and nothing is appended, for NaN and
// ±Inf, which encoding/json refuses.
//
//cnp:noalloc
func appendFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1] // e-07 → e-7
			dst = dst[:n-1]
		}
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// appendString encodes s as a JSON string exactly as encoding/json does
// with HTML escaping on: " and \ backslash-escaped; \b \f \n \r \t by
// name; other control bytes and < > & as \u00XX; every invalid UTF-8
// byte as \ufffd; U+2028 and U+2029 escaped.
//
//cnp:noalloc
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
