package snapshot

import (
	"bufio"
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"slices"
	"testing"

	"cnprobase/internal/corpus"
	"cnprobase/internal/extract"
	"cnprobase/internal/ner"
	"cnprobase/internal/serving"
	"cnprobase/internal/serving/servingtest"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// saveOracle is Save as it was while every section was built in
// memory first: compile, append the image and the evidence into byte
// slices, then frame each with its length and a one-shot checksum.
func saveOracle(w io.Writer, st *State) error {
	metaPayload, err := json.Marshal(st.Meta)
	if err != nil {
		return err
	}
	imageBase := uint64(16 + 13 + len(metaPayload) + 4 + 13)
	view := st.View
	if view == nil {
		view = serving.Compile(st.Taxonomy)
	}
	evidencePayload, err := encodeEvidenceOracle(st, view)
	if err != nil {
		return err
	}
	image, err := view.Image(imageBase)
	if err != nil {
		return err
	}
	var imagePayload bytes.Buffer
	if _, err := image.WriteTo(&imagePayload); err != nil {
		return err
	}

	bw := bufio.NewWriter(w)
	var hdr [16]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], Stripes)
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	for _, s := range []struct {
		kind    byte
		payload []byte
	}{{sectionMeta, metaPayload}, {sectionView, imagePayload.Bytes()}, {sectionEvidence, evidencePayload}} {
		if err := writeSectionOracle(bw, s.kind, 0, s.payload); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString(EndMagic); err != nil {
		return err
	}
	return bw.Flush()
}

// writeSection frames one payload: kind byte, stripe index, payload
// length, payload, CRC-32 (IEEE) of the payload.
func writeSectionOracle(bw *bufio.Writer, kind byte, index uint32, payload []byte) error {
	var hdr [13]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], index)
	binary.LittleEndian.PutUint64(hdr[5:13], uint64(len(payload)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: write section header: %w", err)
	}
	if _, err := bw.Write(payload); err != nil {
		return fmt.Errorf("snapshot: write section payload: %w", err)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload))
	if _, err := bw.Write(crc[:]); err != nil {
		return fmt.Errorf("snapshot: write section checksum: %w", err)
	}
	return nil
}

// encodeEvidenceOracle is an append-built encoder of the evidence
// section driven by name lookups instead of the resolved ID walk: each
// kept pair finds its edge in a map from names, each page (taken off
// an index along no table at all, so in name order) finds its node by
// the view's ID search and its title by a binary search of the mention
// index's own sorted table.
func encodeEvidenceOracle(st *State, view *serving.View) ([]byte, error) {
	if st.Evidence == nil || st.Stats == nil {
		return []byte{0}, nil
	}
	type pair struct{ hypo, hyper string }
	edgeOf := map[pair]uint32{}
	for u, name := range view.Nodes() {
		for _, h := range view.HypernymIDsOf(uint32(u)) {
			edgeOf[pair{name, view.Name(h)}] = uint32(len(edgeOf))
		}
	}
	bits := make([]uint64, (view.EdgeCount()+63)/64)
	var except []byte
	nExcept, next := 0, uint32(0)
	names := st.Taxonomy.Symbols().Names()
	type keptEdge struct {
		j uint32
		c extract.Candidate
	}
	var kept []keptEdge
	for _, c := range st.Taxonomy.Kept {
		j, ok := edgeOf[pair{names[c.Hypo], names[c.Hyper]}]
		if !ok {
			return nil, fmt.Errorf("kept pair %v is not an edge", c)
		}
		kept = append(kept, keptEdge{j, c})
	}
	slices.SortFunc(kept, func(a, b keptEdge) int { return cmp.Compare(a.j, b.j) })
	for _, k := range kept {
		j, c := k.j, k.c
		bits[j/64] |= 1 << (j % 64)
		if view.EdgeAt(j) != c.Source {
			except = binary.AppendUvarint(except, uint64(j-next))
			except = append(except, byte(c.Source))
			nExcept, next = nExcept+1, j+1
		}
	}
	b := []byte{1}
	b = binary.AppendUvarint(b, uint64(len(bits)))
	for _, w := range bits {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	b = binary.AppendUvarint(b, uint64(nExcept))
	b = append(b, except...)

	mentions := servingtest.MentionTexts(st.Taxonomy)
	pages := st.Evidence.PagesAlong(0, nil)
	b = binary.AppendUvarint(b, uint64(len(pages.Preds)))
	for _, p := range pages.Preds {
		b = appendString(b, p)
	}
	page := func(b []byte, i int) []byte {
		title := pages.Title(i)
		if row, ok := slices.BinarySearch(mentions, title); ok {
			b = binary.AppendUvarint(b, uint64(row))
		} else {
			b = appendString(binary.AppendUvarint(b, uint64(len(mentions))), title)
		}
		attrs := pages.AppendAttrs(nil, i)
		b = binary.AppendUvarint(b, uint64(len(attrs)))
		for _, a := range attrs {
			b = binary.AppendUvarint(b, uint64(a.Pred))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Weight))
		}
		return b
	}
	var onNodes, offNodes []byte
	nOn, nOff, nextNode := 0, 0, uint32(0)
	for i := 0; i < pages.Len(); i++ {
		if id, ok := view.ID(pages.Entity(i), 0); ok {
			onNodes = page(binary.AppendUvarint(onNodes, uint64(id-nextNode)), i)
			nOn, nextNode = nOn+1, id+1
		} else {
			offNodes = page(appendString(offNodes, pages.Entity(i)), i)
			nOff++
		}
	}
	b = append(binary.AppendUvarint(b, uint64(nOn)), onNodes...)
	b = append(binary.AppendUvarint(b, uint64(nOff)), offNodes...)

	entries := st.Evidence.Support.Entries()
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, s := range entries {
		b = appendString(b, s.Word)
		b = binary.AppendUvarint(b, uint64(s.NE))
		b = binary.AppendUvarint(b, uint64(s.Total))
	}
	stats := st.Stats.AppendBinary(nil)
	b = binary.AppendUvarint(b, uint64(len(stats)))
	return append(b, stats...), nil
}

// streamStates returns the states the streaming tests save: a built
// world with the update substrate — as Build leaves it and with the
// view a Freeze published — and a hand-assembled one without evidence.
func streamStates(t *testing.T) map[string]*State {
	res := buildResult(t, 400)
	built := func(view *serving.View) *State {
		return &State{Taxonomy: res.Taxonomy, View: view, Evidence: res.Evidence, Stats: res.Stats,
			Meta: Meta{Pages: res.Report.Pages, Stats: res.Report.Stats, LSN: 7}}
	}
	// Loaded from a file without evidence, a taxonomy holds no kept
	// pair (every edge is Derived's): what an empty evidence describes.
	unkept, err := Load(bytes.NewReader(saveBytes(t, handState(t), Options{})))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*State{
		"built, no view":        built(nil),
		"built, published view": built(res.Freeze()),
		"no evidence":           handState(t),
		"no mentions":           {Taxonomy: handState(t).Taxonomy},
		"empty evidence": {Taxonomy: unkept.Taxonomy,
			Evidence: verify.NewEvidence(nil, ner.NewSupport(), ner.New()), Stats: corpus.NewStats()},
	}
}

// TestSaveStreamsSameBytes pins the sized-then-streamed writer to the
// buffer-built one it replaced: equal digests with and without a
// published view, at one worker and at the default, with and without
// an evidence section.
func TestSaveStreamsSameBytes(t *testing.T) {
	for name, st := range streamStates(t) {
		var want bytes.Buffer
		if err := saveOracle(&want, st); err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		for _, workers := range []int{1, 0} {
			got := saveBytes(t, st, Options{Workers: workers})
			if sha256.Sum256(got) != sha256.Sum256(want.Bytes()) {
				t.Fatalf("%s, Workers=%d: streamed snapshot (%d bytes) differs from the buffer-built one (%d bytes)", name, workers, len(got), want.Len())
			}
		}
	}
}

// failAfter passes k bytes through and fails every write from then on.
type failAfter struct {
	w io.Writer
	k int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.k {
		n, _ := f.w.Write(p[:f.k])
		f.k = 0
		return n, errDiskFull
	}
	f.k -= len(p)
	return f.w.Write(p)
}

// TestSaveFailingWriter fails the destination after k bytes, k swept
// across every section boundary ±1 (and a stride through the
// payloads): Save must return the writer's error — not panic, not
// report success — having passed on exactly the first k bytes of the
// snapshot.
func TestSaveFailingWriter(t *testing.T) {
	for name, st := range streamStates(t) {
		whole := saveBytes(t, st, Options{})
		// Section boundaries, from the framing: header, then per section
		// 13 bytes of header, the payload, 4 of checksum.
		cuts := map[int]bool{0: true, 1: true, len(whole) - 1: true}
		mark := func(at int) {
			for d := -1; d <= 1; d++ {
				if k := at + d; k >= 0 && k < len(whole) {
					cuts[k] = true
				}
			}
		}
		for at := 16; at < len(whole)-len(EndMagic); {
			size := int(binary.LittleEndian.Uint64(whole[at+5 : at+13]))
			mark(at)
			mark(at + 13)
			mark(at + 13 + size)
			at += 13 + size + 4
			mark(at)
		}
		for k := 0; k < len(whole); k += len(whole)/61 + 1 {
			cuts[k] = true
		}
		for k := range cuts {
			var got bytes.Buffer
			err := Save(&failAfter{w: &got, k: k}, st, Options{})
			if !errors.Is(err, errDiskFull) {
				t.Fatalf("%s: writer failing after %d of %d bytes: Save = %v", name, k, len(whole), err)
			}
			if !bytes.Equal(got.Bytes(), whole[:k]) {
				t.Fatalf("%s: writer failing after %d bytes received %d, not the snapshot's first %d", name, k, got.Len(), k)
			}
		}
		// A writer that fails only after the last byte is a success.
		if err := Save(&failAfter{w: io.Discard, k: len(whole)}, st, Options{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestSaveMentionWithInvalidBytes saves a mention added with a byte
// that is not valid UTF-8. The taxonomy stores it in its U+FFFD spelling,
// so Save writes it, and Load and the mapped opener both answer it.
func TestSaveMentionWithInvalidBytes(t *testing.T) {
	tax := taxonomy.New()
	if err := tax.AddIsA("实体", "概念", taxonomy.SourceTag); err != nil {
		t.Fatal(err)
	}
	tax.AddMention("坏\xff", "实体")
	data := saveBytes(t, &State{Taxonomy: tax}, Options{})
	loaded, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	mapped, _, err := openMappedBytes(data)
	if err != nil {
		t.Fatalf("mapped: %v", err)
	}
	for name, got := range map[string][]string{
		"loaded": serving.Compile(loaded.Taxonomy).Lookup("坏\uFFFD"),
		"mapped": mapped.Lookup("坏\uFFFD"),
	} {
		if !reflect.DeepEqual(got, []string{"实体"}) {
			t.Errorf("%s: Lookup of the U+FFFD spelling = %q, want [实体]", name, got)
		}
	}
}

// appendString encodes s as uvarint length + raw bytes.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
