package encyclopedia

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ReferenceReadJSONL is the corpus oracle: ReadJSONL as it was before
// the page scanner, every line decoded by encoding/json. The fuzz
// target holds ReadJSONL to it.
func ReferenceReadJSONL(r io.Reader) (*Corpus, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var c Corpus
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var p Page
		if err := json.Unmarshal([]byte(text), &p); err != nil {
			return nil, fmt.Errorf("encyclopedia: line %d: %w", line, err)
		}
		c.Pages = append(c.Pages, p)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("encyclopedia: scan: %w", err)
	}
	return &c, nil
}
