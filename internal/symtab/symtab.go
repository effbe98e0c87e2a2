// Package symtab interns names — entity IDs, page titles, concepts — to
// dense uint32 IDs. One Table serves a whole build: the verification
// evidence and the taxonomy index their flat per-name arrays by its
// IDs, so a name is hashed once when it enters the build and is an
// integer from then on. IDs are handed out in arrival order and never
// reused or forgotten; an owner whose array is shorter than the table
// simply has no record for the newer IDs.
//
// A Table is safe for concurrent use: the ingest path interns while
// queries resolve names.
package symtab

import "sync"

// Table is an append-only name ↔ ID mapping.
type Table struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	names []string
}

// New returns an empty table.
func New() *Table { return &Table{ids: make(map[string]uint32)} }

// Intern returns the name's ID, assigning the next one to a new name.
func (t *Table) Intern(name string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[name]; ok {
		return id
	}
	id = uint32(len(t.names))
	t.ids[name] = id
	t.names = append(t.names, name)
	return id
}

// InternAll interns names in order under one lock, writing their IDs
// to ids (len(ids) ≥ len(names)). Into an empty table the names go
// without rehashing.
func (t *Table) InternAll(names []string, ids []uint32) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.names) == 0 {
		t.ids = make(map[string]uint32, len(names))
	}
	for i, name := range names {
		id, ok := t.ids[name]
		if !ok {
			id = uint32(len(t.names))
			t.ids[name] = id
			t.names = append(t.names, name)
		}
		ids[i] = id
	}
}

// Lookup returns the name's ID if it has one.
func (t *Table) Lookup(name string) (uint32, bool) {
	t.mu.RLock()
	id, ok := t.ids[name]
	t.mu.RUnlock()
	return id, ok
}

// Names returns the names indexed by ID, as of the call. The slice is
// read-only and stays valid: later Interns append past its length and
// never rewrite an element, so loops that resolve many IDs take it once
// instead of locking per name.
func (t *Table) Names() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.names[:len(t.names):len(t.names)]
}
