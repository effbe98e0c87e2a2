package snapshot

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"cnprobase/internal/extract"
	"cnprobase/internal/ner"
	"cnprobase/internal/par"
	"cnprobase/internal/serving"
	"cnprobase/internal/taxonomy"
	"cnprobase/internal/verify"
)

// Save writes st as a version-6 snapshot: the taxonomy is compiled
// into the canonical serving view (or st.View, the same view compiled
// earlier, is taken as is) and serialized as one mappable image
// section (the layout serving.View.Image documents), framed by the
// build metadata and evidence sections. The evidence is written in the
// image's own numbering — kept pairs as one bit per image edge, pages
// by node ID and mention row — so it is resolved against the view
// once, by ID. Saving the same logical state always produces the same
// bytes, no matter the Workers setting of the build or of this call —
// compilation canonicalizes order by construction.
//
// The writer is sized-then-streamed: every section's exact length is
// computed first, then header, payload and a running checksum go
// through one buffered writer — the image block by block from the
// view's arrays, the evidence from the bitset, the page index and the
// corpus statistics' binary form (the one buffered part, ≈ 4 bytes a
// bigram). So a save allocates a few bytes a page, a bit an edge and a
// few bytes a vocabulary word, never a copy of the image.
//
// Save reads the taxonomy and the evidence, so it must not run
// concurrently with a writer of either; it may run beside queries of
// any view.
func Save(w io.Writer, st *State, opts Options) error {
	if st == nil || st.Taxonomy == nil {
		return fmt.Errorf("snapshot: nil state or taxonomy")
	}
	metaPayload, err := json.Marshal(st.Meta)
	if err != nil {
		return fmt.Errorf("snapshot: encode meta: %w", err)
	}
	// The image's alignment padding depends on its absolute file
	// offset: header (16) + meta section framing (13 + payload + 4) +
	// the image's own section header (13).
	imageBase := uint64(16 + 13 + len(metaPayload) + 4 + 13)
	// The corpus statistics and the NE support read nothing the view
	// does, so they are encoded beside the compile.
	ev := &evidenceSection{present: st.Evidence != nil && st.Stats != nil}
	side := &par.Group{Inline: workerCount(opts.Workers) <= 1}
	if ev.present {
		side.Go(func() error {
			ev.stats = st.Stats.AppendBinary(nil)
			ev.support = st.Evidence.Support.Entries()
			return nil
		})
	}
	// The image and the evidence's edge and mention numbers are a flat
	// view's, so a view with a delta is folded first.
	view := st.View.Fold()
	if view == nil {
		view = serving.Compile(st.Taxonomy)
	}
	image, err := view.Image(imageBase)
	_ = side.Wait() // the side job has no error to return
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := ev.resolve(st, view); err != nil {
		return err
	}

	out := newSectionWriter(w, Version)
	out.bytes(sectionMeta, 0, metaPayload)
	out.section(sectionView, 0, uint64(image.Len()), func(bw *bufio.Writer) {
		_, _ = image.WriteTo(bw) // a write error stays on bw
	})
	out.section(sectionEvidence, 0, ev.size, ev.writeTo)
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

// evidenceSection is the evidence section resolved against the view
// it is saved beside and measured, but not encoded: a presence flag;
// the kept candidates as a bitset over the image's edges, plus the
// pairs whose own sources are not their edge's; the page
// evidence along the image's node IDs; the NE support counts (sorted
// by word); and the corpus statistics' binary form. Everything is put
// in order here, once, so the measuring and the writing pass only walk
// it, and evidence bytes are as deterministic as the view image.
type evidenceSection struct {
	present bool // false: the section says "no evidence"
	kept    []uint64
	except  []keptException
	pages   *verify.PageIndex
	// titles holds each page's title as a row of the image's mention
	// table; the mention count marks a title that is no mention.
	titles   []uint32
	mentions uint32
	support  []ner.SupportEntry
	stats    []byte
	attrs    []verify.Attr // scratch for one page
	size     uint64
}

// keptException is a kept pair whose candidate sources differ from its
// edge's: a subconcept rule that derives an edge a generator also
// proposed (or the reverse) reinforces the edge, not the candidate.
type keptException struct {
	edge   uint32
	source taxonomy.Source
}

// resolve puts st's evidence in the view's numbering and measures the
// section by running its encoder without a writer.
func (e *evidenceSection) resolve(st *State, view *serving.View) error {
	if e.present {
		e.pages = st.Evidence.PagesAlong(view.NodeCount(), view.Name)
		if err := e.resolveKept(st.Taxonomy.Kept, view); err != nil {
			return err
		}
		e.mentions = uint32(view.MentionCount())
		e.titles = make([]uint32, e.pages.Len())
		var row uint32
		prev := ""
		for i := range e.titles {
			title, from := e.pages.Title(i), uint32(0)
			if title >= prev {
				from = row // titles mostly ascend with the entities
			}
			r, ok := view.MentionRow(title, from)
			if !ok {
				r = e.mentions
			} else {
				row, prev = r, title
			}
			e.titles[i] = r
		}
	}
	var measure payloadOut
	e.encode(&measure)
	e.size = measure.n
	return nil
}

// resolveKept sets one bit per image edge that is a kept pair. The
// pairs are named by symbol IDs, which PagesAlong has mapped to image
// node IDs once; each pair is one lookup of that map per side and one
// binary search of its hyponym's hypernyms.
func (e *evidenceSection) resolveKept(kept []extract.Candidate, view *serving.View) error {
	e.kept = make([]uint64, (view.EdgeCount()+63)/64)
	for i := range kept {
		c := &kept[i]
		u, ok := e.pages.IndexOf(c.Hypo)
		h, ok2 := e.pages.IndexOf(c.Hyper)
		var j uint32
		if ok && ok2 {
			j, ok = view.EdgeIndex(u, h)
		}
		if !ok || !ok2 {
			return fmt.Errorf("snapshot: kept candidate %q isA %q is not an edge of the taxonomy",
				e.pages.Name(c.Hypo), e.pages.Name(c.Hyper))
		}
		if e.kept[j/64]&(1<<(j%64)) != 0 {
			return fmt.Errorf("snapshot: kept candidate %q isA %q is listed twice", e.pages.Name(c.Hypo), e.pages.Name(c.Hyper))
		}
		e.kept[j/64] |= 1 << (j % 64)
		if c.Source != view.EdgeAt(j) {
			e.except = append(e.except, keptException{j, c.Source})
		}
	}
	// Written as gaps between ascending edges.
	slices.SortFunc(e.except, func(a, b keptException) int { return cmp.Compare(a.edge, b.edge) })
	return nil
}

func (e *evidenceSection) writeTo(bw *bufio.Writer) { e.encode(&payloadOut{bw: bw}) }

// encode is the one walk behind both the measuring and the writing
// pass, so the announced length cannot disagree with the payload.
// docs/SNAPSHOT.md specifies the layout.
func (e *evidenceSection) encode(o *payloadOut) {
	o.buf = make([]byte, 0, payloadChunk+len(e.stats))
	defer o.flush()
	if !e.present {
		o.byte(0)
		return
	}
	o.byte(1)
	o.uvarint(uint64(len(e.kept)))
	for _, w := range e.kept {
		o.u64(w)
	}
	o.uvarint(uint64(len(e.except)))
	next := uint32(0)
	for _, x := range e.except {
		o.uvarint(uint64(x.edge - next))
		o.byte(byte(x.source))
		next = x.edge + 1
	}

	p := e.pages
	o.uvarint(uint64(len(p.Preds)))
	for _, pred := range p.Preds {
		o.str(pred)
	}
	o.uvarint(uint64(p.OnTable()))
	next = 0
	for i := 0; i < p.OnTable(); i++ {
		o.uvarint(uint64(p.Node(i) - next))
		next = p.Node(i) + 1
		e.encodePage(o, i)
	}
	o.uvarint(uint64(p.Len() - p.OnTable()))
	for i := p.OnTable(); i < p.Len(); i++ {
		o.str(p.Entity(i))
		e.encodePage(o, i)
	}

	o.uvarint(uint64(len(e.support)))
	for _, s := range e.support {
		o.str(s.Word)
		o.uvarint(uint64(s.NE))
		o.uvarint(uint64(s.Total))
	}
	o.uvarint(uint64(len(e.stats)))
	o.raw(e.stats)
}

// encodePage encodes page i's title and attributes.
func (e *evidenceSection) encodePage(o *payloadOut, i int) {
	o.uvarint(uint64(e.titles[i]))
	if e.titles[i] == e.mentions {
		o.str(e.pages.Title(i))
	}
	e.attrs = e.pages.AppendAttrs(e.attrs[:0], i)
	o.uvarint(uint64(len(e.attrs)))
	for _, a := range e.attrs {
		o.uvarint(uint64(a.Pred))
		o.u64(math.Float64bits(a.Weight))
	}
}

// payloadOut receives a varint-encoded payload: it appends the bytes to
// a chunk and, whenever the chunk fills and at the end (flush), counts
// them and hands them to the writer, if it has one (errors stick to
// the writer). The measuring pass is the same appends without a writer.
type payloadOut struct {
	bw  *bufio.Writer // nil: measure only
	n   uint64
	buf []byte
}

const payloadChunk = 4 << 10

// flush counts the chunk and passes it on.
func (o *payloadOut) flush() {
	o.n += uint64(len(o.buf))
	if o.bw != nil {
		_, _ = o.bw.Write(o.buf)
	}
	o.buf = o.buf[:0]
}

func (o *payloadOut) spill() {
	if len(o.buf) >= payloadChunk {
		o.flush()
	}
}

func (o *payloadOut) byte(b byte) { o.buf = append(o.buf, b); o.spill() }

func (o *payloadOut) uvarint(x uint64) { o.buf = binary.AppendUvarint(o.buf, x); o.spill() }

func (o *payloadOut) u64(x uint64) { o.buf = binary.LittleEndian.AppendUint64(o.buf, x); o.spill() }

// str encodes s as uvarint length + raw bytes.
func (o *payloadOut) str(s string) {
	o.buf = append(binary.AppendUvarint(o.buf, uint64(len(s))), s...)
	o.spill()
}

// raw passes b through as is.
func (o *payloadOut) raw(b []byte) { o.buf = append(o.buf, b...); o.spill() }
