package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// requireFiles holds dir to exactly one file, name, holding want with
// the permission bits mode: no temp file is left beside it.
func requireFiles(t *testing.T, dir, name, want string, mode os.FileMode) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		t.Fatalf("directory holds %v, want only %s", entries, name)
	}
	path := filepath.Join(dir, name)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("%s holds %q, want %q", name, got, want)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != mode {
		t.Errorf("%s has mode %v, want %v", name, fi.Mode().Perm(), mode)
	}
}

// TestWriteMode: a new file is 0644 whatever the process's temp files
// get, and a replaced file keeps the mode the operator gave it.
func TestWriteMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "taxonomy.snap")
	n, err := Write(path, writeString("first"))
	if err != nil || n != int64(len("first")) {
		t.Fatalf("Write = %d, %v", n, err)
	}
	requireFiles(t, dir, "taxonomy.snap", "first", 0o644)

	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(path, writeString("second")); err != nil {
		t.Fatal(err)
	}
	requireFiles(t, dir, "taxonomy.snap", "second", 0o640)
}

// TestWriteFailureKeepsOldFile: a write that fails after some bytes
// reports its error and leaves the old file byte-identical, with no
// temp file behind.
func TestWriteFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "taxonomy.snap")
	old := bytes.Repeat([]byte("旧快照"), 1000)
	if err := os.WriteFile(path, old, 0o640); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	errFull := errors.New("disk full")
	_, err := Write(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial new snapshot")); err != nil {
			return err
		}
		return errFull
	})
	if !errors.Is(err, errFull) {
		t.Fatalf("Write over a failing writer = %v, want %v", err, errFull)
	}
	requireFiles(t, dir, "taxonomy.snap", string(old), 0o640)
}
