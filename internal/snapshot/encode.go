package snapshot

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"strings"

	"cnprobase/internal/ner"
	"cnprobase/internal/par"
	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// Save writes st as a version-3 snapshot: the store is compiled into
// the canonical serving view (or st.View, the same view compiled
// earlier, is taken as is) and serialized as one mappable image
// section (the layout serving.View.Image documents), framed by the
// build metadata and evidence sections. Saving the same logical state
// always produces the same bytes, no matter the Workers setting of
// the build or of this call — compilation canonicalizes
// order by construction. Mentions must be valid UTF-8 (JSON ingestion
// guarantees it; a hand-built store with raw invalid bytes is
// rejected with an error, before anything is written).
//
// The writer is sized-then-streamed: every section's exact length is
// computed first, then header, payload and a running checksum go
// through one buffered writer — the image block by block from the
// view's arrays, the evidence straight from the kept list and the
// evidence's ID tables. No section payload is held in memory (the
// corpus statistics' JSON, a small part of the evidence section,
// aside), so a save allocates the same whatever the taxonomy's size.
//
// Save is safe to call while the taxonomy is being queried. Concurrent
// *writers* are tolerated — the store is read under its lock, in one
// piece — but the snapshot then captures whatever state lies between
// two writes, exactly like Edges does.
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
	// indexed and measured beside the compile.
	var evidence *evidenceSection
	side := &par.Group{Inline: workerCount(opts.Workers) <= 1}
	side.Go(func() (err error) {
		evidence, err = measureEvidence(st)
		return err
	})
	view := st.View
	if view == nil {
		// A view that exists only to be serialized needs no hash index.
		view = serving.CompileUnindexed(st.Taxonomy, mentions)
	}
	image, err := view.Image(imageBase)
	sideErr := side.Wait()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if sideErr != nil {
		return sideErr
	}

	out := newSectionWriter(w, Version)
	out.bytes(sectionMeta, 0, metaPayload)
	out.section(sectionView, 0, uint64(image.Len()), func(bw *bufio.Writer) {
		_, _ = image.WriteTo(bw) // a write error stays on bw
	})
	out.section(sectionEvidence, 0, evidence.size, evidence.writeTo)
	return out.close()
}

// sectionWriter frames a snapshot: the file header, then sections —
// kind byte, stripe index, payload length, payload, CRC-32 (IEEE) of
// the payload — then the end marker. A section's length is announced
// before its payload is produced, and the checksum runs over the
// buffer-sized chunks on their way out, so a payload is never held.
// Write errors are not checked call by call: the first one sticks to
// bw, every later write is dropped, and close reports it.
type sectionWriter struct {
	bw  *bufio.Writer
	sum checksumWriter // what bw flushes into
	// broken is set when a section's payload was not of the length its
	// frame announced; the file is unreadable and close says so.
	broken error
}

// checksumWriter forwards to w, counting and checksumming what passes.
type checksumWriter struct {
	w   io.Writer
	crc uint32
	n   uint64
}

func (c *checksumWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	c.n += uint64(n)
	return n, err
}

func newSectionWriter(w io.Writer, version uint32) *sectionWriter {
	out := &sectionWriter{sum: checksumWriter{w: w}}
	out.bw = bufio.NewWriterSize(&out.sum, 64<<10)
	var hdr [16]byte
	copy(hdr[:8], Magic)
	binary.LittleEndian.PutUint32(hdr[8:12], version)
	binary.LittleEndian.PutUint32(hdr[12:16], Stripes)
	_, _ = out.bw.Write(hdr[:])
	return out
}

// section frames one payload of exactly size bytes, which body writes
// to bw. The buffer is flushed on both sides of the payload so that
// the checksum covers the payload alone.
func (out *sectionWriter) section(kind byte, index uint32, size uint64, body func(bw *bufio.Writer)) {
	var hdr [13]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], index)
	binary.LittleEndian.PutUint64(hdr[5:13], size)
	_, _ = out.bw.Write(hdr[:])
	if out.bw.Flush() != nil {
		return // the destination has failed; spare the walk
	}
	out.sum.crc, out.sum.n = 0, 0
	body(out.bw)
	if out.bw.Flush() == nil && out.sum.n != size && out.broken == nil {
		out.broken = fmt.Errorf("snapshot: section %d wrote %d bytes, announced %d", kind, out.sum.n, size)
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], out.sum.crc)
	_, _ = out.bw.Write(crc[:])
}

// bytes frames a payload that already exists.
func (out *sectionWriter) bytes(kind byte, index uint32, payload []byte) {
	out.section(kind, index, uint64(len(payload)), func(bw *bufio.Writer) { _, _ = bw.Write(payload) })
}

// close writes the end marker and flushes; it returns the first error
// of the whole write.
func (out *sectionWriter) close() error {
	_, _ = out.bw.WriteString(EndMagic)
	if err := out.bw.Flush(); err != nil {
		return fmt.Errorf("snapshot: write: %w", err)
	}
	return out.broken
}

// evidenceSection is the evidence section, indexed and
// measured but not encoded: a presence flag, the kept candidate set,
// the page-derived evidence (sorted by entity ID, attributes sorted by
// predicate), the NE support counts (sorted by word) and the corpus
// statistics (their canonical JSON form). Everything is put in order
// here, so evidence bytes are as deterministic as the view image.
type evidenceSection struct {
	st      *State // nil: the section says "no evidence"
	pages   verify.PageIndex
	support []ner.SupportEntry
	stats   string // the corpus statistics' JSON
	size    uint64
}

// measureEvidence prepares st's evidence section and computes its
// exact encoded length by running the encoder without a writer.
func measureEvidence(st *State) (*evidenceSection, error) {
	e := &evidenceSection{}
	if st.Evidence != nil && st.Stats != nil {
		var stats strings.Builder
		if _, err := st.Stats.WriteTo(&stats); err != nil {
			return nil, fmt.Errorf("snapshot: encode statistics: %w", err)
		}
		e.st, e.stats = st, stats.String()
		e.pages = st.Evidence.SortedPages()
		e.support = st.Evidence.Support.Entries()
	}
	var measure payloadOut
	e.encode(&measure)
	e.size = measure.n
	return e, nil
}

func (e *evidenceSection) writeTo(bw *bufio.Writer) { e.encode(&payloadOut{bw: bw}) }

// encode is the one walk behind both the measuring and the writing
// pass, so the announced length cannot disagree with the payload.
func (e *evidenceSection) encode(o *payloadOut) {
	if e.st == nil {
		o.byte(0)
		return
	}
	o.byte(1)
	o.uvarint(uint64(len(e.st.Kept)))
	for i := range e.st.Kept {
		c := &e.st.Kept[i]
		o.str(c.Hypo)
		o.str(c.Hyper)
		o.byte(byte(c.Source))
		o.u64(math.Float64bits(c.Score))
	}
	o.uvarint(uint64(e.pages.Len()))
	e.pages.Each(func(id, title string, attrs []verify.Attr) {
		o.str(id)
		o.str(title)
		o.uvarint(uint64(len(attrs)))
		for _, a := range attrs {
			o.str(a.Predicate)
			o.u64(math.Float64bits(a.Weight))
		}
	})
	o.uvarint(uint64(len(e.support)))
	for _, s := range e.support {
		o.str(s.Word)
		o.uvarint(uint64(s.NE))
		o.uvarint(uint64(s.Total))
	}
	o.str(e.stats)
}

// payloadOut receives a varint-encoded payload: it counts the bytes
// and, given a writer, writes them (errors stick to the writer).
type payloadOut struct {
	bw      *bufio.Writer // nil: measure only
	n       uint64
	scratch [binary.MaxVarintLen64]byte
}

func (o *payloadOut) put(k int) {
	o.n += uint64(k)
	if o.bw != nil {
		_, _ = o.bw.Write(o.scratch[:k])
	}
}

func (o *payloadOut) byte(b byte) {
	o.scratch[0] = b
	o.put(1)
}

func (o *payloadOut) uvarint(x uint64) { o.put(binary.PutUvarint(o.scratch[:], x)) }

func (o *payloadOut) u64(x uint64) {
	binary.LittleEndian.PutUint64(o.scratch[:], x)
	o.put(8)
}

// str encodes s as uvarint length + raw bytes.
func (o *payloadOut) str(s string) {
	o.uvarint(uint64(len(s)))
	o.n += uint64(len(s))
	if o.bw != nil {
		_, _ = o.bw.WriteString(s)
	}
}
