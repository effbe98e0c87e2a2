package snapshot

// Info is what a snapshot file holds and where its bytes go: what
// `cnprobase inspect` prints.
type Info struct {
	Version uint32
	Meta    Meta
	// Evidence is false for a file saved without the update substrate.
	Evidence bool
	// Parts lists the file's bytes in file order; they sum to the bytes
	// up to the end marker. A part with Sub set is a sub-section of the
	// evidence section's payload, and those sum to its bytes.
	Parts []Part
}

// Part is one stretch of a snapshot file.
type Part struct {
	Name  string
	Bytes int
	Sub   bool
}

// Inspect checks a snapshot as the mapped opener does — framing,
// checksums, the image, the evidence against the image — and reports
// its contents and the bytes of each section and evidence sub-section.
func Inspect(data []byte) (*Info, error) {
	f, _, ev, err := open(data)
	if err != nil {
		return nil, err
	}
	return &Info{
		Version:  f.version,
		Meta:     f.meta,
		Evidence: ev.present,
		Parts: []Part{
			{"header", 16, false},
			{"section frames (3 × 17)", 3 * 17, false},
			{"meta", f.metaLen, false},
			{"view image", len(f.image), false},
			{"evidence", len(f.evidence), false},
			{"flag", ev.flag, true},
			{"kept candidates", ev.kept, true},
			{"page evidence", ev.pages, true},
			{"NE support", ev.support, true},
			{"corpus statistics", ev.stats, true},
			{"end marker", len(EndMagic), false},
		},
	}, nil
}
