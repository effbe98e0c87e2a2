package symtab

import (
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestInternLookupName(t *testing.T) {
	tab := New()
	if _, ok := tab.Lookup("演员"); ok {
		t.Fatal("Lookup on an empty table found a name")
	}
	a, b := tab.Intern("演员"), tab.Intern("歌手")
	if a != 0 || b != 1 || tab.Intern("演员") != a {
		t.Fatalf("IDs = %d, %d; want arrival order 0, 1 and a stable repeat", a, b)
	}
	if id, ok := tab.Lookup("歌手"); !ok || id != b {
		t.Fatalf("Lookup = %d, %v", id, ok)
	}
	if names := tab.Names(); len(names) != 2 || names[a] != "演员" {
		t.Fatalf("Names = %v", names)
	}
	// A snapshot taken earlier stays valid and does not see later names.
	names := tab.Names()
	tab.Intern("作家")
	if len(names) != 2 || names[1] != "歌手" || len(tab.Names()) != 3 {
		t.Fatalf("snapshot = %v after a later Intern", names)
	}
}

// TestConcurrentInternAndRead is the -race certification: writers
// intern overlapping names while readers resolve IDs through every
// accessor, including an old Names snapshot.
func TestConcurrentInternAndRead(t *testing.T) {
	tab := New()
	tab.Intern("种子")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				name := fmt.Sprintf("名%d", (i+g)%300)
				if id := tab.Intern(name); tab.Names()[id] != name {
					t.Errorf("Names()[Intern(%q)] = %q", name, tab.Names()[id])
					return
				}
			}
		}(g)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				names := tab.Names()
				if id, ok := tab.Lookup(fmt.Sprintf("名%d", i%300)); ok && int(id) < len(names) && names[id] != fmt.Sprintf("名%d", i%300) {
					t.Errorf("names[%d] = %q", id, names[id])
					return
				}
				if names[0] != "种子" || len(tab.Names()) < len(names) {
					t.Error("snapshot changed under the reader")
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := len(tab.Names()); n != 301 {
		t.Fatalf("%d names, want 301 distinct", n)
	}
}

// TestInternAllMatchesIntern: interning a list at once, into an empty
// table or one that holds some of its names, hands out the IDs the
// same names interned one by one would get.
func TestInternAllMatchesIntern(t *testing.T) {
	list := []string{"乙", "甲", "乙", "", "丙", "甲", "丁"}
	for _, seed := range [][]string{nil, {"甲"}, {"戊", "丙"}} {
		one, all := New(), New()
		for _, name := range seed {
			one.Intern(name)
			all.Intern(name)
		}
		ids := make([]uint32, len(list))
		all.InternAll(list, ids)
		for i, name := range list {
			if want := one.Intern(name); ids[i] != want {
				t.Fatalf("seed %q: InternAll gave %q ID %d, Intern %d", seed, name, ids[i], want)
			}
		}
		if !slices.Equal(all.Names(), one.Names()) {
			t.Fatalf("seed %q: tables differ: %q vs %q", seed, all.Names(), one.Names())
		}
	}
}
