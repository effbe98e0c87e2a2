// Package atomicfile replaces a file durably and atomically. It is how
// a snapshot reaches disk, from `cnprobase build -save` and from the
// durable ingester's compactor alike. It is a package of its own, not
// part of internal/snapshot, because the ingest plane (internal/api)
// needs it and the snapshot package's tests import internal/api.
package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
)

// Write replaces the file at path with what write streams, and returns
// the bytes written. The bytes go to a temp file in path's directory,
// which is fsynced, closed and renamed over path, and then the
// directory is fsynced: a crash at any point leaves either the old file
// or the new one, never a torn file, and a server mapping or
// SIGHUP-reloading the old file keeps a whole one. A failed write
// leaves the old file as it was and no temp file behind. The new file
// takes the permission bits of the file it replaces, or 0644 when there
// is none, so a replica running as another user can still read it.
func Write(path string, write func(io.Writer) error) (int64, error) {
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(path); err == nil {
		mode = fi.Mode().Perm()
	}
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	tmp := f.Name()
	fail := func(err error) (int64, error) {
		err = errors.Join(err, f.Close())
		os.Remove(tmp)
		return 0, err
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return fail(err)
	}
	if err := f.Chmod(mode); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	d, err := os.Open(dir)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return 0, err
	}
	return size, nil
}
