package taxonomy

import (
	"reflect"
	"testing"
)

// lookup names the entities of mention's pairs, by entity ID.
func lookup(tx *Taxonomy, mention string) []string {
	var out []string
	for _, m := range tx.MentionsOf(mention) {
		out = append(out, tx.syms.Names()[m.Entity])
	}
	return out
}

func TestMentionIndexLookup(t *testing.T) {
	tx := New()
	tx.AddMention("刘德华", "刘德华（演员）")
	tx.AddMention("刘德华", "刘德华（作家）")
	tx.AddMention("刘德华", "刘德华（演员）") // duplicate ignored
	tx.AddMention("德华", "刘德华（演员）")
	if got := lookup(tx, "刘德华"); !reflect.DeepEqual(got, []string{"刘德华（演员）", "刘德华（作家）"}) {
		t.Fatalf("pairs of 刘德华 = %v", got)
	}
	tx.AddMention("  刘德华  ", "刘德华（作家）") // stored trimmed: already held
	if got := len(tx.Mentions); got != 3 {
		t.Errorf("%d mention pairs, want 3", got)
	}
	if got := lookup(tx, "无人"); got != nil {
		t.Errorf("pairs of an unknown mention = %v", got)
	}
	// A batch merges into the sorted list and reports the mentions that
	// gained an entity.
	got := tx.AddMentions([]Mention{{Text: "德华", Entity: tx.syms.Intern("德华（角色）")}, {Text: "甲", Entity: 0}, {Text: "刘德华", Entity: 0}})
	if !reflect.DeepEqual(got, []string{"德华", "甲"}) {
		t.Errorf("AddMentions reported %v, want [德华 甲]", got)
	}
	for i := 1; i < len(tx.Mentions); i++ {
		if compareMentions(tx.Mentions[i-1], tx.Mentions[i]) >= 0 {
			t.Fatalf("mention pairs not sorted and distinct: %v", tx.Mentions)
		}
	}
}

func TestMentionIndexIgnoresEmpty(t *testing.T) {
	tx := New()
	tx.AddMention("", "id")
	tx.AddMention("  ", "id")
	tx.AddMention("mention", "")
	if len(tx.Mentions) != 0 {
		t.Errorf("%d mention pairs, want 0", len(tx.Mentions))
	}
}
