// Package runes provides rune-level utilities for Chinese (CJK) text
// processing shared by the segmenter, the NER recognizer and the
// extraction algorithms.
//
// Chinese has no word spaces, so the pipeline classifies text rune by
// rune; this package centralizes the script classification predicates.
package runes

import "unicode"

// The CJK Unified Ideographs block, U+4E00–U+9FFF, is all Han and
// holds nearly every rune of Chinese text; Han begins at U+2E80. Both
// facts are checked for every rune by TestRuneClassesMatchUnicode.
const (
	cjkFirst = 0x4E00
	cjkLast  = 0x9FFF
	hanFirst = 0x2E80
)

// IsHan reports whether r is a Han (CJK ideograph) rune.
func IsHan(r rune) bool {
	if r >= cjkFirst && r <= cjkLast {
		return true
	}
	return r >= hanFirst && unicode.Is(unicode.Han, r)
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
	if r >= cjkFirst && r <= cjkLast {
		return false
	}
	return IsCJKPunct(r) || unicode.IsPunct(r) || unicode.IsSymbol(r)
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
