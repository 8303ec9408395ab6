// Package consume exercises the storage-consumer rules: code above
// the Backend interface must classify what it reads.
package consume

import (
	"errors"
	"io"
	"io/fs"
	"os"

	"fix/internal/storage"
)

// Sizes classifies misses with errors.Is before propagating: passes.
func Sizes(b storage.Backend, names []string) (int64, error) {
	var total int64
	for _, n := range names {
		sz, err := b.Stat(n)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			return 0, err
		}
		total += sz
	}
	return total, nil
}

// First reads through the backend and returns the raw error: flagged.
func First(b storage.Backend) ([]string, error) { // want `First reads through a storage\.Backend and returns error without classifying it`
	names, err := b.List("")
	if err != nil {
		return nil, err
	}
	return names, nil
}

// Store names the Backend through an alias.
type Store = storage.Backend

// failure names error through an alias.
type failure = error

// Aliased reads through the Backend under the alias's name and returns
// the raw error: flagged.
func Aliased(b Store) ([]string, error) { // want `Aliased reads through a storage\.Backend and returns error without classifying it`
	return b.List("")
}

// Size returns the raw error under the alias's name: flagged.
func Size(b storage.Backend, name string) (int64, failure) { // want `Size reads through a storage\.Backend and returns error without classifying it`
	return b.Stat(name)
}

// Misses counts with the unwrapping-blind helper: flagged.
func Misses(b storage.Backend, names []string) int {
	n := 0
	for _, name := range names {
		if _, err := b.Stat(name); os.IsNotExist(err) { // want `os\.IsNotExist does not unwrap errors`
			n++
		}
	}
	return n
}

// Evict discards Delete's error entirely: flagged.
func Evict(b storage.Backend, name string) {
	b.Delete(name) // want `storage backend call's error is discarded`
}

// Peek blanks Get's error: flagged.
func Peek(b storage.Backend, name string) bool {
	rc, _ := b.Get(name) // want `storage backend call's error is dropped into _`
	if rc != nil {
		rc.Close()
		return true
	}
	return false
}

// classify routes an error through the taxonomy for its callers.
func classify(err error) error {
	if storage.IsTransient(err) {
		return err
	}
	return storage.Transient(err)
}

// Names reads and hands the error to a classifying helper: the
// same-package fixpoint credits the helper, so no finding.
func Names(b storage.Backend, prefix string) ([]string, error) {
	names, err := b.List(prefix)
	if err != nil {
		return nil, classify(err)
	}
	return names, nil
}

// Probe reads without classifying but carries a recorded allow: the
// annotation suppresses the finding.
//
//rapwam:allow errortaxonomy fixture probe mirrors the production healthz contract of reporting raw first failures
func Probe(b storage.Backend) error {
	_, err := b.List("")
	return err
}

// Fault wraps a Backend and implements the interface itself: the
// wrapper is below the taxonomy line (its contract is to surface raw
// errors for consumers to classify), so its methods pass.
type Fault struct{ B storage.Backend }

// Put implements storage.Backend.
func (f *Fault) Put(name string, write func(w io.Writer) error) error { return f.B.Put(name, write) }

// Get implements storage.Backend.
func (f *Fault) Get(name string) (io.ReadCloser, error) { return f.B.Get(name) }

// Stat implements storage.Backend.
func (f *Fault) Stat(name string) (int64, error) { return f.B.Stat(name) }

// List implements storage.Backend.
func (f *Fault) List(prefix string) ([]string, error) { return f.B.List(prefix) }

// Delete implements storage.Backend.
func (f *Fault) Delete(name string) error { return f.B.Delete(name) }

// Rename implements storage.Backend.
func (f *Fault) Rename(old, new string) error { return f.B.Rename(old, new) }
