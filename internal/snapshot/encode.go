package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"

	"cnprobase/internal/par"
	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
)

// Save writes st as a version-3 snapshot: the store is compiled into
// the canonical serving view (or st.View, the same view compiled
// earlier, is taken as is) and serialized as one mappable image
// section (the layout serving.View.AppendImage documents), framed by
// the build metadata and evidence sections. Saving the same logical
// state always produces the same bytes, no matter the Workers/Shards
// settings of the build or of this call — compilation canonicalizes
// order by construction. Mentions must be valid UTF-8 (JSON ingestion
// guarantees it; a hand-built store with raw invalid bytes is
// rejected with an error).
//
// Save is safe to call while the taxonomy is being queried. Concurrent
// *writers* are tolerated — per-shard locking means the export sees
// each shard atomically — but the snapshot then captures some
// intermediate state between the writes, exactly like Edges does.
func Save(w io.Writer, st *State, opts Options) error {
	if st == nil || st.Taxonomy == nil {
		return fmt.Errorf("snapshot: nil state or taxonomy")
	}
	mentions := st.Mentions
	if mentions == nil {
		mentions = taxonomy.NewMentionIndex()
	}
	metaPayload, err := json.Marshal(st.Meta)
	if err != nil {
		return fmt.Errorf("snapshot: encode meta: %w", err)
	}
	// The image's alignment padding depends on its absolute file
	// offset: header (16) + meta section framing (13 + payload + 4) +
	// the image's own section header (13).
	imageBase := uint64(16 + 13 + len(metaPayload) + 4 + 13)
	// The evidence section reads nothing the image does, so it is
	// encoded beside the compile.
	var evidencePayload []byte
	side := &par.Group{Inline: workerCount(opts.Workers) <= 1}
	side.Go(func() (err error) {
		evidencePayload, err = encodeEvidence(st)
		return err
	})
	view := st.View
	if view == nil {
		view = serving.Compile(st.Taxonomy, mentions)
	}
	imagePayload, err := view.AppendImage(make([]byte, 0, view.ImageLen(imageBase)), imageBase)
	sideErr := side.Wait()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if sideErr != nil {
		return sideErr
	}

	bw := bufio.NewWriter(w)
	var hdr [16]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], Version)
	binary.LittleEndian.PutUint32(hdr[12:16], Stripes)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if err := writeSection(bw, sectionMeta, 0, metaPayload); err != nil {
		return err
	}
	if err := writeSection(bw, sectionView, 0, imagePayload); err != nil {
		return err
	}
	if err := writeSection(bw, sectionEvidence, 0, evidencePayload); err != nil {
		return err
	}
	if _, err := bw.WriteString(EndMagic); err != nil {
		return fmt.Errorf("snapshot: write end marker: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: flush: %w", err)
	}
	return nil
}

// SaveLegacy writes st in the striped version-2 layout — the taxonomy
// and mention index exported into Stripes hash partitions, each put
// into canonical (sorted) order and encoded on the worker pool. Kept
// as the compatibility oracle: v2 files exercise the legacy decode
// path in tests, and the startup benchmark uses them as the
// decode-at-open baseline the mapped path is measured against.
func SaveLegacy(w io.Writer, st *State, opts Options) error {
	if st == nil || st.Taxonomy == nil {
		return fmt.Errorf("snapshot: nil state or taxonomy")
	}
	mentions := st.Mentions
	if mentions == nil {
		mentions = taxonomy.NewMentionIndex()
	}
	metaPayload, err := json.Marshal(st.Meta)
	if err != nil {
		return fmt.Errorf("snapshot: encode meta: %w", err)
	}

	// Export first (cheap map walks), then encode the stripes — the
	// sort + varint + CRC work that dominates — in parallel.
	taxParts := st.Taxonomy.ExportPartitions(Stripes)
	menParts := mentions.ExportPartitions(Stripes)
	pool := par.NewPool(workerCount(opts.Workers))
	taxPayloads := par.Concat(par.MapBatches(pool, Stripes, func(lo, hi int) [][]byte {
		out := make([][]byte, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, encodeTaxStripe(taxParts[i]))
		}
		return out
	}))
	menPayloads := par.Concat(par.MapBatches(pool, Stripes, func(lo, hi int) [][]byte {
		out := make([][]byte, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, encodeMentionStripe(menParts[i]))
		}
		return out
	}))

	evidencePayload, err := encodeEvidence(st)
	if err != nil {
		return err
	}

	bw := bufio.NewWriter(w)
	var hdr [16]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], versionV2)
	binary.LittleEndian.PutUint32(hdr[12:16], Stripes)
	if _, err := bw.Write(hdr[:]); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if err := writeSection(bw, sectionMeta, 0, metaPayload); err != nil {
		return err
	}
	for i, p := range taxPayloads {
		if err := writeSection(bw, sectionTaxonomy, uint32(i), p); err != nil {
			return err
		}
	}
	for i, p := range menPayloads {
		if err := writeSection(bw, sectionMentions, uint32(i), p); err != nil {
			return err
		}
	}
	if err := writeSection(bw, sectionEvidence, 0, evidencePayload); err != nil {
		return err
	}
	if _, err := bw.WriteString(EndMagic); err != nil {
		return fmt.Errorf("snapshot: write end marker: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: flush: %w", err)
	}
	return nil
}

// writeSection frames one payload: kind byte, stripe index, payload
// length, payload, CRC-32 (IEEE) of the payload.
func writeSection(bw *bufio.Writer, kind byte, index uint32, payload []byte) error {
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

// encodeTaxStripe canonicalizes and encodes one taxonomy partition:
// kinds sorted by name, then edges sorted by (hypo, hyper), each edge
// carrying its full provenance so counts and scores round-trip
// bit-exactly. Negative evidence counts (impossible through the public
// build path) encode as zero.
func encodeTaxStripe(p taxonomy.Partition) []byte {
	sort.Slice(p.Kinds, func(i, j int) bool { return p.Kinds[i].Name < p.Kinds[j].Name })
	sort.Slice(p.Edges, func(i, j int) bool {
		if p.Edges[i].Hypo != p.Edges[j].Hypo {
			return p.Edges[i].Hypo < p.Edges[j].Hypo
		}
		return p.Edges[i].Hyper < p.Edges[j].Hyper
	})
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(p.Kinds)))
	for _, k := range p.Kinds {
		b = appendString(b, k.Name)
		b = append(b, byte(k.Kind))
	}
	b = binary.AppendUvarint(b, uint64(len(p.Edges)))
	for _, e := range p.Edges {
		b = appendString(b, e.Hypo)
		b = appendString(b, e.Hyper)
		b = append(b, byte(e.Sources))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Score))
		count := e.Count
		if count < 0 {
			count = 0
		}
		b = binary.AppendUvarint(b, uint64(count))
	}
	return b
}

// encodeMentionStripe canonicalizes and encodes one mention partition:
// entries sorted by mention, ID lists sorted (ID order is not
// query-visible — Lookup sorts — so canonical order costs nothing).
func encodeMentionStripe(entries []taxonomy.MentionEntry) []byte {
	sort.Slice(entries, func(i, j int) bool { return entries[i].Mention < entries[j].Mention })
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		sort.Strings(e.IDs)
		b = appendString(b, e.Mention)
		b = binary.AppendUvarint(b, uint64(len(e.IDs)))
		for _, id := range e.IDs {
			b = appendString(b, id)
		}
	}
	return b
}

// encodeEvidence encodes the version-2 evidence section: a presence
// flag, the kept candidate set, the page-derived evidence (sorted by
// entity ID, attributes sorted by predicate), the NE support counts
// (sorted by word) and the corpus statistics (their canonical JSON
// form). Everything is sorted at encode time, so evidence bytes are as
// deterministic as the graph stripes.
func encodeEvidence(st *State) ([]byte, error) {
	if st.Evidence == nil || st.Stats == nil {
		return []byte{0}, nil
	}
	b := []byte{1}
	b = binary.AppendUvarint(b, uint64(len(st.Kept)))
	for _, c := range st.Kept {
		b = appendString(b, c.Hypo)
		b = appendString(b, c.Hyper)
		b = append(b, byte(c.Source))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(c.Score))
	}
	ents := st.Evidence.ExportEntities()
	b = binary.AppendUvarint(b, uint64(len(ents)))
	for _, e := range ents {
		b = appendString(b, e.ID)
		b = appendString(b, e.Title)
		b = binary.AppendUvarint(b, uint64(len(e.Attrs)))
		for _, a := range e.Attrs {
			b = appendString(b, a.Predicate)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a.Weight))
		}
	}
	entries := st.Evidence.Support.Entries()
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, s := range entries {
		b = appendString(b, s.Word)
		b = binary.AppendUvarint(b, uint64(s.NE))
		b = binary.AppendUvarint(b, uint64(s.Total))
	}
	var stats bytes.Buffer
	if _, err := st.Stats.WriteTo(&stats); err != nil {
		return nil, fmt.Errorf("snapshot: encode statistics: %w", err)
	}
	b = binary.AppendUvarint(b, uint64(stats.Len()))
	b = append(b, stats.Bytes()...)
	return b, nil
}

// appendString encodes s as uvarint length + raw bytes.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}
