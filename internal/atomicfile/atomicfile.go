// Package atomicfile replaces files crash-safely. Content goes to a
// temporary file beside the target, is fsynced, and only then renamed over
// the target, so a crash, a full disk or a failing encoder mid-write
// leaves the previous file intact: readers see the old contents or the
// new, never a truncated mix.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// File is an in-progress replacement of a file. Write to it, then Commit
// to install the result or Abort to discard it.
type File struct {
	f    *os.File
	path string
	// direct marks a target that is not a regular file (a device, a
	// pipe): it cannot be renamed over, so writes go straight to it.
	direct bool
}

// Create starts replacing path. Nothing at path changes until Commit, but
// an unwritable directory fails here, before any work is done.
func Create(path string) (*File, error) {
	var f *os.File
	fi, err := os.Stat(path)
	direct := err == nil && !fi.Mode().IsRegular()
	if direct {
		f, err = os.OpenFile(path, os.O_WRONLY, 0)
	} else {
		f, err = os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	}
	if err != nil {
		return nil, err
	}
	return &File{f: f, path: path, direct: direct}, nil
}

// Write appends to the pending contents.
func (f *File) Write(p []byte) (int, error) { return f.f.Write(p) }

// Commit installs the written contents at the target path: fsync, close,
// rename, then fsync the directory so the rename itself is durable. On
// error the target keeps its previous contents.
func (f *File) Commit() error {
	if f.direct {
		return f.f.Close()
	}
	err := f.f.Chmod(0o644)
	if err == nil {
		err = f.f.Sync()
	}
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.f.Name(), f.path)
	}
	if err != nil {
		os.Remove(f.f.Name())
		return err
	}
	if d, err := os.Open(filepath.Dir(f.path)); err == nil {
		d.Sync() // best effort: not every filesystem syncs directories
		d.Close()
	}
	return nil
}

// Abort discards the pending contents; the target is untouched. After a
// Commit it does nothing.
func (f *File) Abort() {
	if f.f.Close() == nil && !f.direct {
		os.Remove(f.f.Name())
	}
}

// WriteFile replaces path with what write produces. If write or any step
// of the replacement fails, path keeps its previous contents.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}
