package blob

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Dir is the production backend: one local directory, with objects in
// sub-namespaces ("quarantine/...") stored in subdirectories. Writes
// go through a temp file in the object's directory followed by an
// atomic rename, so concurrent writers — including separate processes
// sharing the directory — race benignly: one complete file wins, and
// readers only ever observe complete files.
type Dir struct {
	root    string
	tempAge time.Duration
}

// NewDir creates (if needed) and opens a directory backend rooted at
// root, immediately sweeping stale *.tmp droppings and aged
// quarantined objects older than tempAge (the atomic temp+rename
// scheme cleans up after errors, but not after SIGKILL or a power cut
// mid-write). tempAge <= 0 disables the opening sweep.
func NewDir(root string, tempAge time.Duration) (*Dir, error) {
	if root == "" {
		return nil, fmt.Errorf("storage: empty directory")
	}
	if err := os.MkdirAll(root, 0o777); err != nil {
		return nil, fmt.Errorf("storage: %w", err)
	}
	d := &Dir{root: root, tempAge: tempAge}
	if tempAge > 0 {
		d.Sweep(tempAge)
	}
	return d, nil
}

// Root returns the backend's root directory.
func (d *Dir) Root() string { return d.root }

// Name implements Backend.
func (d *Dir) Name() string { return "dir:" + d.root }

// path maps an object name to its file path. Names were validated by
// the caller-facing methods before reaching here.
func (d *Dir) path(name string) string {
	return filepath.Join(d.root, filepath.FromSlash(name))
}

// checkName rejects names the flat-directory layout cannot represent
// safely (escapes, absolute paths).
func (d *Dir) checkName(op, name string) error {
	if !ValidName(name) {
		return &Error{Op: op, Backend: d.Name(), Name: name, Err: fmt.Errorf("invalid object name")}
	}
	return nil
}

// Put implements Backend: temp file in the object's directory, atomic
// rename into place. The writer handed to write is an *os.File, so
// callers that type-assert io.WriteSeeker (the trace codec's header
// back-patch) get a seekable writer. On any error or panic the temp
// file is removed and the object is untouched.
func (d *Dir) Put(name string, write func(w io.Writer) error) (retErr error) {
	if err := d.checkName("put", name); err != nil {
		return err
	}
	path := d.path(name)
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return wrapOp(d.Name(), "put", name, err)
	}
	tmp, err := os.CreateTemp(dir, "put-*"+filepath.Ext(path)+".tmp")
	if err != nil {
		return wrapOp(d.Name(), "put", name, err)
	}
	committed := false
	defer func() {
		// Clean the temp file up on error AND on panic (a machine
		// error escaping write must not strand a dropping).
		if !committed {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err := write(tmp); err != nil {
		return err // the callback's error, not a backend failure
	}
	if err := tmp.Close(); err != nil {
		return wrapOp(d.Name(), "put", name, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return wrapOp(d.Name(), "put", name, err)
	}
	committed = true
	return nil
}

// Get implements Backend. A missing object returns the raw *fs.PathError
// from os.Open, so legacy callers using os.IsNotExist still match.
func (d *Dir) Get(name string) (io.ReadCloser, error) {
	if err := d.checkName("get", name); err != nil {
		return nil, err
	}
	f, err := os.Open(d.path(name))
	if err != nil {
		return nil, err // raw: os.IsNotExist must keep working on misses
	}
	return f, nil
}

// Stat implements Backend (raw os error on a miss, like Get).
func (d *Dir) Stat(name string) (Info, error) {
	if err := d.checkName("stat", name); err != nil {
		return Info{}, err
	}
	fi, err := os.Stat(d.path(name))
	if err != nil {
		return Info{}, err
	}
	if !fi.Mode().IsRegular() {
		return Info{}, &Error{Op: "stat", Backend: d.Name(), Name: name, Err: fmt.Errorf("not a regular file")}
	}
	return Info{Size: fi.Size(), ModTime: fi.ModTime()}, nil
}

// List implements Backend: one directory level (the root for prefix
// without a slash, the named subdirectory for "sub/..."), temp files
// excluded.
func (d *Dir) List(prefix string) ([]string, error) {
	dir, rest := d.root, prefix
	if i := strings.LastIndex(prefix, "/"); i >= 0 {
		sub := prefix[:i]
		if !ValidName(sub) {
			return nil, &Error{Op: "list", Backend: d.Name(), Name: prefix, Err: fmt.Errorf("invalid prefix")}
		}
		dir, rest = filepath.Join(d.root, filepath.FromSlash(sub)), prefix[i+1:]
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil // an absent sub-namespace is empty, not an error
		}
		return nil, wrapOp(d.Name(), "list", prefix, err)
	}
	var names []string
	base := prefix[:len(prefix)-len(rest)]
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasPrefix(e.Name(), rest) || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		names = append(names, base+e.Name())
	}
	return sortedNames(names), nil
}

// Delete implements Backend (raw os error on a miss).
func (d *Dir) Delete(name string) error {
	if err := d.checkName("delete", name); err != nil {
		return err
	}
	return os.Remove(d.path(name))
}

// Rename implements Backend, creating the destination's directory
// (quarantining creates "quarantine/" on first use).
func (d *Dir) Rename(old, new string) error {
	if err := d.checkName("rename", old); err != nil {
		return err
	}
	if err := d.checkName("rename", new); err != nil {
		return err
	}
	to := d.path(new)
	if err := os.MkdirAll(filepath.Dir(to), 0o777); err != nil {
		return wrapOp(d.Name(), "rename", new, err)
	}
	if err := os.Rename(d.path(old), to); err != nil {
		return wrapOp(d.Name(), "rename", old, err)
	}
	return nil
}

// Sweep implements Backend: removes *.tmp droppings in the root and in
// quarantine/, and ages out quarantined objects older than olderThan
// (a quarantined file has already been replaced by a recompute — it is
// kept a while for inspection, not forever).
func (d *Dir) Sweep(olderThan time.Duration) int {
	cutoff := time.Now().Add(-olderThan)
	removed := sweepDir(d.root, cutoff, false)
	removed += sweepDir(filepath.Join(d.root, "quarantine"), cutoff, true)
	return removed
}

// sweepDir removes stale temp files (and, when all is set, every
// regular file) older than cutoff in one directory. Failures are
// swallowed: sweeping is hygiene, not correctness.
func sweepDir(dir string, cutoff time.Time, all bool) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range entries {
		if !e.Type().IsRegular() || (!all && !strings.HasSuffix(e.Name(), ".tmp")) {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(dir, e.Name())) == nil {
			removed++
		}
	}
	return removed
}
