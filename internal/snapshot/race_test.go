package snapshot

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"cnprobase/internal/taxonomy"
)

// TestConcurrentSaveAndQueries drives the serving scenario the
// snapshot exists for, under the race detector: API queries
// (men2ent/getConcept/getEntity through the real HTTP handlers) keep
// hammering the served view while snapshots of the taxonomy are being
// written — and while a background writer keeps extending it between
// saves, the never-ending extraction mode. The taxonomy has one writer
// at a time, so the writer and the savers take turns as the ingest
// plane's updater and compactor do (one lock here); the queries go to
// the view and wait for neither. Every snapshot taken between two
// writes must load cleanly.
func TestConcurrentSaveAndQueries(t *testing.T) {
	st := handState(t)
	srv := serverOf(st)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const (
		queryWorkers   = 4
		saveWorkers    = 2
		queriesPerGo   = 60
		savesPerWorker = 8
	)
	nodes := nodeNames(st.Taxonomy)

	var wg sync.WaitGroup
	errc := make(chan error, queryWorkers+saveWorkers+1)

	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < queriesPerGo; i++ {
				n := nodes[(w*queriesPerGo+i)%len(nodes)]
				for _, path := range []string{
					"/api/men2ent?mention=" + n,
					"/api/getConcept?ranked=1&entity=" + n,
					"/api/getEntity?limit=5&concept=" + n,
				} {
					resp, err := ts.Client().Get(ts.URL + path)
					if err != nil {
						errc <- fmt.Errorf("GET %s: %w", path, err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != 200 {
						errc <- fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
						return
					}
				}
			}
		}(w)
	}

	var turns sync.Mutex // the taxonomy's one writer and its savers take turns
	for w := 0; w < saveWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < savesPerWorker; i++ {
				var buf bytes.Buffer
				turns.Lock()
				err := Save(&buf, st, Options{Workers: 2})
				turns.Unlock()
				if err != nil {
					errc <- fmt.Errorf("save %d/%d: %w", w, i, err)
					return
				}
				if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
					errc <- fmt.Errorf("load of mid-write snapshot %d/%d: %w", w, i, err)
					return
				}
			}
		}(w)
	}

	// One writer extends the graph and the mention pairs throughout,
	// so saves and queries interleave with live mutation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			id := fmt.Sprintf("新实体%03d（更新）", i)
			turns.Lock()
			st.Taxonomy.MarkEntity(id)
			err := st.Taxonomy.AddIsA(id, fmt.Sprintf("概念%d", i%7), taxonomy.SourceTag)
			st.Taxonomy.AddMention(fmt.Sprintf("新实体%03d", i), id)
			turns.Unlock()
			if err != nil {
				errc <- fmt.Errorf("AddIsA: %w", err)
				return
			}
		}
	}()

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
