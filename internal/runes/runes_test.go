package runes

import (
	"testing"
	"unicode"
)

func TestIsHan(t *testing.T) {
	for _, tc := range []struct {
		r    rune
		want bool
	}{
		{'中', true}, {'国', true}, {'人', true}, {'A', false},
		{'1', false}, {'，', false}, {' ', false}, {'ñ', false},
	} {
		if got := IsHan(tc.r); got != tc.want {
			t.Errorf("IsHan(%q) = %v, want %v", tc.r, got, tc.want)
		}
	}
}

func TestIsCJKPunct(t *testing.T) {
	for _, r := range []rune{'，', '。', '、', '《', '》', '（', '）'} {
		if !IsCJKPunct(r) {
			t.Errorf("IsCJKPunct(%q) = false, want true", r)
		}
	}
	for _, r := range []rune{'中', 'a', '1'} {
		if IsCJKPunct(r) {
			t.Errorf("IsCJKPunct(%q) = true, want false", r)
		}
	}
}

func TestIsPunct(t *testing.T) {
	for _, r := range []rune{'，', '.', '!', '-', '+'} {
		if !IsPunct(r) {
			t.Errorf("IsPunct(%q) = false, want true", r)
		}
	}
	if IsPunct('汉') {
		t.Error("IsPunct(汉) = true, want false")
	}
}

func TestAllHan(t *testing.T) {
	if !AllHan("中国人") {
		t.Error("AllHan(中国人) = false, want true")
	}
	if AllHan("中国a") {
		t.Error("AllHan(中国a) = true, want false")
	}
	if AllHan("") {
		t.Error("AllHan(\"\") = true, want false")
	}
}

func TestLen(t *testing.T) {
	for _, tc := range []struct {
		s    string
		want int
	}{{"", 0}, {"abc", 3}, {"中国", 2}, {"a中1", 3}} {
		if got := Len(tc.s); got != tc.want {
			t.Errorf("Len(%q) = %d, want %d", tc.s, got, tc.want)
		}
	}
}

// TestRuneClassesMatchUnicode checks IsHan and IsPunct against the
// unicode tables for every rune, which proves their fast paths exact.
func TestRuneClassesMatchUnicode(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if got, want := IsHan(r), unicode.Is(unicode.Han, r); got != want {
			t.Fatalf("IsHan(%U) = %v, want %v", r, got, want)
		}
		if got, want := IsPunct(r), IsCJKPunct(r) || unicode.IsPunct(r) || unicode.IsSymbol(r); got != want {
			t.Fatalf("IsPunct(%U) = %v, want %v", r, got, want)
		}
	}
}
