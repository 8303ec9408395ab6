// Package storage is the pluggable blob-storage layer under every
// persistent store in the repo (the trace store in internal/tracestore
// and the experiment result cache in internal/service). The paper's
// results are pure functions of (benchmark, PEs, mode, emulator
// version), which is what lets those stores be content-addressed — and
// what makes storage failure recoverable by construction: any object a
// backend loses or corrupts can be recomputed bit-identically, so the
// storage contract here is deliberately small and failure is a
// first-class, injectable input.
//
// The Backend interface follows the swappable-backend pattern (one
// behavior, several interchangeable implementations): a flat namespace
// of atomically-replaced objects with streaming reads. The
// implementations shipping in this package:
//
//   - Dir — the production backend: one local directory, writes via
//     temp file + atomic rename (concurrent writers race benignly,
//     readers only observe complete objects);
//   - Mem — an in-memory backend for tests and benchmarks;
//   - Peer — an HTTP client backend over the blob protocol other
//     rapwamd nodes serve (BlobHandler), reads routed owner-first by
//     rendezvous hashing;
//   - Tiered — local-first composition with peer-fetch + local
//     write-through on miss: the cluster read tier;
//   - Fault — a deterministic fault-injection wrapper over any inner
//     backend: a seeded PRNG injects read/write/op errors, latency,
//     torn writes and bit flips (at rest and in flight), so every
//     store and serving path can be tested against a hostile disk or
//     wire.
//
// Higher layers classify errors with IsTransient (worth retrying, not
// evidence of corruption) and AsBackendError (the storage layer itself
// failed — degrade to compute-without-caching rather than failing the
// request).
package storage

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strings"
	"sync"
	"time"
)

// Info describes one stored object.
type Info struct {
	// Size is the object's length in bytes.
	Size int64
	// ModTime is when the object was last committed.
	ModTime time.Time
}

// Backend is a flat namespace of atomically-written blobs. Names use
// forward slashes for sub-namespaces (the stores use "quarantine/...")
// and must be relative — no leading slash, no "." or ".." elements.
//
// Implementations must be safe for concurrent use.
type Backend interface {
	// Put atomically creates or replaces name with the bytes write
	// produces. The writer passed to write is an io.WriteSeeker when
	// the backend supports in-place patching (both shipped backends
	// do; the trace codec uses it to back-fill the header count).
	// On any error — from write or from the backend — the object is
	// either fully replaced or untouched, never partial, and no
	// temporary droppings remain (including when write panics).
	Put(name string, write func(w io.Writer) error) error
	// Get opens name for streaming reads. A missing object returns an
	// error satisfying errors.Is(err, fs.ErrNotExist).
	Get(name string) (io.ReadCloser, error)
	// Stat returns the object's size and modification time.
	Stat(name string) (Info, error)
	// List returns the names of all objects whose name starts with
	// prefix, sorted. Prefix "" lists the root namespace only (not
	// sub-namespaces like "quarantine/"); a prefix ending in "/"
	// lists that sub-namespace.
	List(prefix string) ([]string, error)
	// Delete removes name (fs.ErrNotExist when absent).
	Delete(name string) error
	// Rename atomically moves old to new, replacing any existing
	// object at new. The stores use it to quarantine corrupt entries.
	Rename(old, new string) error
	// Sweep removes stale write droppings (temp files older than
	// olderThan) and ages out quarantined objects older than
	// olderThan, returning how many objects were removed. Sweeping is
	// best-effort hygiene: failures are not reported because a
	// stranded temp wastes space but corrupts nothing.
	Sweep(olderThan time.Duration) int
	// Name describes the backend for logs and health reports.
	Name() string
}

// QuarantinePrefix is the sub-namespace corrupt objects are moved to
// by the self-healing read paths ("quarantine/<original name>").
const QuarantinePrefix = "quarantine/"

// ValidName reports whether name is acceptable to the shipped
// backends: relative, slash-separated, no empty/dot/dotdot elements.
func ValidName(name string) bool {
	if name == "" || strings.HasPrefix(name, "/") || strings.HasSuffix(name, "/") {
		return false
	}
	for _, el := range strings.Split(name, "/") {
		if el == "" || el == "." || el == ".." {
			return false
		}
	}
	return true
}

// Error is a backend-side failure: the storage layer itself — not the
// caller's write callback and not the decoded content — failed. The
// serving layers use AsBackendError to tell "the disk is broken"
// (degrade to compute-without-caching) from "the computation failed"
// (surface the error).
type Error struct {
	// Op is the backend operation ("put", "get", "stat", ...).
	Op string
	// Backend names the backend the failure occurred in.
	Backend string
	// Name is the object involved.
	Name string
	// Err is the underlying cause.
	Err error
}

func (e *Error) Error() string {
	return fmt.Sprintf("storage: %s %s %q: %v", e.Backend, e.Op, e.Name, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// AsBackendError reports whether err's chain contains a storage-layer
// failure: a backend *Error, a raw filesystem *fs.PathError (I/O
// errors surface unwrapped through write callbacks streaming straight
// to a backend file), or a transient injected/retried fault.
func AsBackendError(err error) bool {
	var se *Error
	var pe *fs.PathError
	return errors.As(err, &se) || errors.As(err, &pe) || IsTransient(err)
}

// TransientError marks an error as transient: worth retrying and NOT
// evidence that stored content is corrupt (a flaky read must not
// quarantine a healthy object). The Fault backend wraps every injected
// operational error this way.
type TransientError struct {
	Err error
}

func (e *TransientError) Error() string { return "transient: " + e.Err.Error() }
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as transient (nil stays nil).
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether err's chain contains a TransientError.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// wrapOp wraps a backend-side failure as *Error, passing nil and
// not-exist errors through untouched (a miss is an answer, not a
// failure, and callers match it with errors.Is(err, fs.ErrNotExist)
// or os.IsNotExist on the raw error).
func wrapOp(backend, op, name string, err error) error {
	if err == nil || errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if IsTransient(err) {
		return err // already classified; keep the transient marker on top
	}
	return &Error{Op: op, Backend: backend, Name: name, Err: err}
}

// Probe round-trips a small object through the backend — Put, Get,
// content compare, Delete — returning the first failure. The serving
// layer's deepened /v1/healthz runs one probe per component so a load
// balancer can drain a node whose disk went read-only before clients
// hit it. Callers should serialize probes per backend (the name is
// fixed so concurrent probes would race benignly but report noise).
//
//rapwam:allow errortaxonomy health probe reports raw first failure; classification is the healthz caller's job
func Probe(b Backend) error {
	const name = "healthz.probe"
	payload := []byte("probe " + time.Now().UTC().Format(time.RFC3339Nano))
	if err := b.Put(name, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		return fmt.Errorf("probe write: %w", err)
	}
	rc, err := b.Get(name)
	if err != nil {
		return fmt.Errorf("probe read: %w", err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		return fmt.Errorf("probe read: %w", err)
	}
	if string(got) != string(payload) {
		return fmt.Errorf("probe read back %d bytes, wrote %d (storage not round-tripping)", len(got), len(payload))
	}
	if err := b.Delete(name); err != nil {
		return fmt.Errorf("probe delete: %w", err)
	}
	return nil
}

// --- degraded-mode accounting ---

// DegradedFlag collects which storage components a computation had to
// bypass (compute-without-caching). The serving layer plants one in
// the computation's context; the experiment grid marks it when a
// storage failure forces the storeless path, and the response carries
// the components in an X-Degraded header.
type DegradedFlag struct {
	mu         sync.Mutex
	components []string
}

// Components returns the distinct degraded components, in mark order.
func (f *DegradedFlag) Components() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.components...)
}

// mark records one degraded component (deduplicated).
func (f *DegradedFlag) mark(component string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.components {
		if c == component {
			return
		}
	}
	f.components = append(f.components, component)
}

type degradedKey struct{}

// WithDegraded returns a context carrying a fresh DegradedFlag, and
// the flag for reading after the computation completes.
func WithDegraded(ctx context.Context) (context.Context, *DegradedFlag) {
	f := &DegradedFlag{}
	return context.WithValue(ctx, degradedKey{}, f), f
}

// MarkDegraded records, on the context's DegradedFlag if one is
// planted, that component had to be bypassed. A context without a flag
// makes this a no-op, so library callers outside the serving path pay
// nothing.
func MarkDegraded(ctx context.Context, component string) {
	if f, _ := ctx.Value(degradedKey{}).(*DegradedFlag); f != nil {
		f.mark(component)
	}
}

// sortedNames is a small shared helper for List implementations.
func sortedNames(names []string) []string {
	sort.Strings(names)
	return names
}
