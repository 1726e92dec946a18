package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astra/internal/profile"
)

// failAfter passes through n bytes, then fails every write: a disk that
// fills up mid-save.
type failAfter struct {
	w io.Writer
	n int
}

var errDiskFull = errors.New("no space left on device")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n, _ := f.w.Write(p[:f.n])
		f.n = 0
		return n, errDiskFull
	}
	f.n -= len(p)
	return f.w.Write(p)
}

func snapshot(t *testing.T, n int) *profile.Index {
	t.Helper()
	ix := profile.NewIndex()
	for i := 0; i < n; i++ {
		ix.Record(profile.Key("ctx#v="+strings.Repeat("x", i+1)), float64(10+i))
	}
	return ix
}

// listDir returns the directory's entries, so tests can assert that no
// temporary file is left behind.
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		out = append(out, e.Name())
	}
	return out
}

// TestFailedSaveKeepsPreviousSnapshot is the crash-safety guarantee: a
// save that dies mid-write (here, a disk filling up inside the encoder)
// leaves the previous snapshot loadable and unchanged.
func TestFailedSaveKeepsPreviousSnapshot(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	old := snapshot(t, 3)
	if err := WriteFile(path, old.Save); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	bigger := snapshot(t, 50)
	err = WriteFile(path, func(w io.Writer) error {
		return bigger.Save(&failAfter{w: w, n: len(before) / 2})
	})
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("WriteFile = %v, want the injected failure", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(before) {
		t.Fatalf("previous snapshot changed:\n%s\nvs\n%s", before, after)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded := profile.NewIndex()
	if err := loaded.Load(f); err != nil {
		t.Fatalf("previous snapshot no longer loads: %v", err)
	}
	if loaded.Len() != old.Len() {
		t.Fatalf("loaded %d entries, want %d", loaded.Len(), old.Len())
	}
	if got := listDir(t, dir); len(got) != 1 {
		t.Fatalf("directory holds %v, want only the snapshot", got)
	}
}

func TestCreateCommitAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.jsonl")
	if err := os.WriteFile(path, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "half")
	f.Abort()
	f.Abort() // idempotent
	if b, _ := os.ReadFile(path); string(b) != "old\n" {
		t.Fatalf("aborted write changed the target: %q", b)
	}

	f, err = Create(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(f, "new\n")
	if b, _ := os.ReadFile(path); string(b) != "old\n" {
		t.Fatalf("target changed before Commit: %q", b)
	}
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	f.Abort() // no-op after Commit
	if err := f.Commit(); err == nil {
		t.Fatal("second Commit succeeded")
	}
	if b, _ := os.ReadFile(path); string(b) != "new\n" {
		t.Fatalf("committed contents %q", b)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("committed file mode %v, %v", fi.Mode(), err)
	}
	if got := listDir(t, dir); len(got) != 1 {
		t.Fatalf("directory holds %v, want only the target", got)
	}

	if _, err := Create(filepath.Join(dir, "missing", "x")); err == nil {
		t.Fatal("Create in a missing directory succeeded")
	}
}

// TestDeviceTargetWritesThrough: a device such as /dev/null cannot be
// renamed over; it is written directly and stays a device.
func TestDeviceTargetWritesThrough(t *testing.T) {
	if err := WriteFile(os.DevNull, func(w io.Writer) error {
		_, err := io.WriteString(w, "discarded")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(os.DevNull)
	if err != nil || fi.Mode().IsRegular() {
		t.Fatalf("%s is now %v (%v)", os.DevNull, fi.Mode(), err)
	}
}
