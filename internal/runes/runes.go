// Package runes provides rune-level utilities for Chinese (CJK) text
// processing shared by the segmenter, the NER recognizer and the
// extraction algorithms.
//
// Chinese has no word spaces, so most of the pipeline operates on rune
// slices rather than byte offsets; this package centralizes the
// conversions and the script classification predicates.
package runes

import "unicode"

// IsHan reports whether r is a Han (CJK ideograph) rune.
func IsHan(r rune) bool {
	return unicode.Is(unicode.Han, r)
}

// IsDigit reports whether r is an ASCII or fullwidth digit.
func IsDigit(r rune) bool {
	return (r >= '0' && r <= '9') || (r >= '０' && r <= '９')
}

// IsCJKPunct reports whether r is common CJK punctuation.
func IsCJKPunct(r rune) bool {
	switch r {
	case '，', '。', '、', '；', '：', '？', '！', '（', '）',
		'《', '》', '“', '”', '‘', '’', '【', '】', '—', '…', '·':
		return true
	}
	return false
}

// IsPunct reports whether r is punctuation in either script.
func IsPunct(r rune) bool {
	return IsCJKPunct(r) || unicode.IsPunct(r) || unicode.IsSymbol(r)
}

// Split converts s into a slice of runes.
func Split(s string) []rune { return []rune(s) }

// Join converts a rune slice back into a string.
func Join(rs []rune) string { return string(rs) }

// HanCount returns the number of Han runes in s.
func HanCount(s string) int {
	n := 0
	for _, r := range s {
		if IsHan(r) {
			n++
		}
	}
	return n
}

// AllHan reports whether s is non-empty and consists only of Han runes.
func AllHan(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !IsHan(r) {
			return false
		}
	}
	return true
}

// Len returns the number of runes in s.
func Len(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// HasSuffix reports whether the rune slice rs ends with the runes of
// suffix.
func HasSuffix(rs []rune, suffix string) bool {
	sfx := []rune(suffix)
	if len(sfx) > len(rs) {
		return false
	}
	off := len(rs) - len(sfx)
	for i, r := range sfx {
		if rs[off+i] != r {
			return false
		}
	}
	return true
}

// Reverse returns a new slice with the runes of rs in reverse order.
func Reverse(rs []rune) []rune {
	out := make([]rune, len(rs))
	for i, r := range rs {
		out[len(rs)-1-i] = r
	}
	return out
}
