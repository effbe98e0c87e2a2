package snapshot

import (
	"fmt"
	"runtime"

	"cnprobase/internal/serving"
)

// OpenMapped maps a version-6 snapshot file read-only and builds a
// serving view directly over the mapping: header and CRCs are
// verified, the image's structure is validated, and the view's arrays
// alias the mapped bytes (see serving.OpenImage). Startup cost is
// independent of the string content — no parse, no hashing, no string
// copies — and every replica on the box shares one page-cache copy of
// the file.
//
// The mapping lives as long as the returned view: a finalizer unmaps
// it when the view becomes unreachable, so after an api.Server.SwapView
// the old file is released only once in-flight queries have drained
// and the garbage collector has proven no reader remains.
func OpenMapped(path string) (*serving.View, Meta, error) {
	data, unmap, err := mmapFile(path)
	if err != nil {
		return nil, Meta{}, fmt.Errorf("snapshot: map %s: %w", path, err)
	}
	v, meta, err := openMappedBytes(data)
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, Meta{}, err
	}
	if unmap != nil {
		// Unmap only when the view is unreachable — after a hot swap
		// the old view may still be answering in-flight queries, so the
		// munmap rides garbage collection, not the swap itself.
		runtime.SetFinalizer(v, func(*serving.View) { unmap() })
	}
	return v, meta, nil
}

// openMappedBytes is OpenMapped over an in-memory buffer — the
// fuzz-target entry, and the shared tail of the file path.
func openMappedBytes(data []byte) (*serving.View, Meta, error) {
	f, view, _, err := open(data)
	return view, f.meta, err
}

// open is the validation the mapped opener and Inspect share. It
// frames the file with parse, exactly as Load does, opens the image
// over data and validates the evidence section Load would materialize
// against it, in Load's order, so it accepts the files Load accepts
// and refuses the others with Load's error.
func open(data []byte) (framed, *serving.View, evidenceParts, error) {
	var parts evidenceParts
	f, err := parse(data)
	if err != nil {
		return f, nil, parts, err
	}
	view, err := serving.OpenImage(f.image, f.imageBase)
	if err != nil {
		return f, nil, parts, fmt.Errorf("snapshot: view image: %w", err)
	}
	if parts, err = validateEvidence(f.evidence, viewShape(view)); err != nil {
		return f, nil, parts, fmt.Errorf("snapshot: evidence section: %w", err)
	}
	return f, view, parts, nil
}
