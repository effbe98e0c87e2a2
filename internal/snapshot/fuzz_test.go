package snapshot

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"slices"
	"testing"
)

// sortedKeys returns m's keys in order, so seeds go in in a fixed one.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// FuzzDecodeSnapshot throws arbitrary bytes at both entry points. The
// invariants: neither panics nor allocates past the input it actually
// has (the seeds include a section claiming multiple exabytes, which
// the length-vs-remaining check must answer), Load accepts exactly
// what the mapped opener accepts, a version-1 or version-2 header is
// always refused, and any input they *accept* is internally
// consistent — taxonomy and mapped view describe the same graph, and
// re-saving the loaded state and loading that again reproduces it.
//
// CI runs this as a short smoke (-fuzztime=10s); run it longer locally
// with:
//
//	go test ./internal/snapshot -run='^$' -fuzz=FuzzDecodeSnapshot
func FuzzDecodeSnapshot(f *testing.F) {
	valid := saveBytes(f, handState(f), Options{Workers: 1})
	f.Add(valid)
	legacy := legacyInputs(f) // must-reject: the v1 header, the v2 file, patched versions
	for _, version := range sortedKeys(legacy) {
		f.Add(legacy[version]) // in version order, so a seed's number names one input
	}
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add(valid[:16])                // header only
	f.Add(valid[:len(valid)/2])      // mid-section truncation
	f.Add(valid[:len(valid)-1])      // missing last end-marker byte
	f.Add(bytes.Repeat(valid, 2))    // trailing garbage after a full snapshot
	f.Add([]byte("CNPBSNP1garbage")) // magic followed by junk

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)

	// A structurally valid header whose first section claims an
	// exabyte-scale payload: the loader must fail on the missing bytes
	// without allocating anything of that order.
	huge := append([]byte(nil), valid[:16]...)
	huge = append(huge, sectionMeta, 0, 0, 0, 0)
	huge = binary.LittleEndian.AppendUint64(huge, 1<<60)
	f.Add(huge)

	// An evidence section in the image's numbering, for the fuzzer to
	// bend: a kept bit, a page on a node, its title row and attribute.
	f.Add(withEvidence(f, valid, validSpec().payload()))

	// Must-reject images that frame correctly: a mention entity at the
	// node count, and a mention whose entity IDs do not ascend.
	bad := badMentionEntities(f, valid)
	for _, what := range sortedKeys(bad) {
		f.Add(bad[what])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data))
		mapped, _, mappedErr := openMappedBytes(data)
		// A crafted file must never serve mapped while being refused (or
		// read differently) by Load, nor the other way round.
		if (err == nil) != (mappedErr == nil) {
			t.Fatalf("Load and openMappedBytes disagree: store err=%v, mapped err=%v", err, mappedErr)
		}
		if err != nil {
			return // rejected: that is the expected path for noise
		}
		if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
			t.Fatalf("accepted a version-%d file", v)
		}
		// Both accepted: they must describe the same graph.
		if a, b := st.Taxonomy.ComputeStats(), mapped.Stats(); a != b {
			t.Fatalf("store and mapped view stats differ: %+v != %+v", a, b)
		}
		// Accepted input must round-trip: the loaded state re-saves,
		// reloads, and describes the same graph.
		resaved := saveBytes(t, st, Options{Workers: 1})
		again, err := Load(bytes.NewReader(resaved))
		if err != nil {
			t.Fatalf("re-loading a re-saved accepted snapshot failed: %v", err)
		}
		if a, b := st.Taxonomy.ComputeStats().IsARelations, again.Taxonomy.ComputeStats().IsARelations; a != b {
			t.Fatalf("edge count changed across re-save: %d != %d", a, b)
		}
		if a, b := st.Taxonomy.ComputeStats(), again.Taxonomy.ComputeStats(); a != b {
			t.Fatalf("stats changed across re-save: %+v != %+v", a, b)
		}
		if a, b := len(st.Taxonomy.Mentions), len(again.Taxonomy.Mentions); a != b {
			t.Fatalf("mention count changed across re-save: %d != %d", a, b)
		}
	})
}
