package blob

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"sync"
	"time"
)

// Mem is an in-memory backend for tests, benchmarks and store-less
// runs (a bench.Runner's private trace store). It implements the full
// Backend contract — atomic Put (the object appears only when the write
// callback succeeds), seekable writers, sorted List — so store-level
// tests exercise exactly the code paths production runs, minus the
// disk.
type Mem struct {
	mu      sync.RWMutex
	objects map[string]memObject
}

type memObject struct {
	data    []byte
	modTime time.Time
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{objects: make(map[string]memObject)}
}

// Name implements Backend.
func (m *Mem) Name() string { return "mem" }

// Buffer is the seekable in-memory write target Mem and the cluster
// tier's Peer hand Put callbacks: the same grow-on-write + seek
// semantics as an *os.File, so the trace codec's header back-patch
// works against them too. The zero value is empty and ready to use.
type Buffer struct {
	buf []byte
	off int64
}

func (w *Buffer) Write(p []byte) (int, error) {
	end := w.off + int64(len(p))
	if end > int64(cap(w.buf)) {
		// Double, and copy once: append's policy for large slices
		// recopies a multi-megabyte trace several times over.
		grown := make([]byte, len(w.buf), max(end, 2*int64(cap(w.buf))))
		copy(grown, w.buf)
		w.buf = grown
	}
	if end > int64(len(w.buf)) {
		// Bytes between the old length and w.off (a write past the end
		// after a seek) are zero: make zeroed them and nothing else
		// writes beyond len.
		w.buf = w.buf[:end]
	}
	copy(w.buf[w.off:end], p)
	w.off = end
	return len(p), nil
}

// Bytes returns the bytes written so far (the buffer's own storage).
func (w *Buffer) Bytes() []byte { return w.buf }

func (w *Buffer) Seek(offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = w.off + offset
	case io.SeekEnd:
		abs = int64(len(w.buf)) + offset
	default:
		return 0, fmt.Errorf("mem: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("mem: negative seek offset")
	}
	w.off = abs
	return abs, nil
}

// Put implements Backend: the callback writes into a detached buffer;
// only a successful return installs the object, so failed or panicking
// writes leave the namespace untouched (the in-memory equivalent of
// temp+rename). The object is stored at its exact size: the writer's
// doubling leaves up to half its buffer unused, which a store-less run
// would otherwise hold for every object it keeps.
func (m *Mem) Put(name string, write func(w io.Writer) error) error {
	if !ValidName(name) {
		return &Error{Op: "put", Backend: m.Name(), Name: name, Err: fmt.Errorf("invalid object name")}
	}
	w := &Buffer{}
	if err := write(w); err != nil {
		return err
	}
	data := w.buf
	if cap(data) > len(data) {
		data = make([]byte, len(w.buf))
		copy(data, w.buf)
	}
	m.mu.Lock()
	m.objects[name] = memObject{data: data, modTime: time.Now()}
	m.mu.Unlock()
	return nil
}

// notExist builds the backend's miss error (errors.Is fs.ErrNotExist).
func (m *Mem) notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// Get implements Backend.
func (m *Mem) Get(name string) (io.ReadCloser, error) {
	m.mu.RLock()
	obj, ok := m.objects[name]
	m.mu.RUnlock()
	if !ok {
		return nil, m.notExist("open", name)
	}
	return io.NopCloser(bytes.NewReader(obj.data)), nil
}

// Stat implements Backend.
func (m *Mem) Stat(name string) (Info, error) {
	m.mu.RLock()
	obj, ok := m.objects[name]
	m.mu.RUnlock()
	if !ok {
		return Info{}, m.notExist("stat", name)
	}
	return Info{Size: int64(len(obj.data)), ModTime: obj.modTime}, nil
}

// List implements Backend, with the same one-level namespace semantics
// as Dir: a prefix without a slash lists root objects only.
func (m *Mem) List(prefix string) ([]string, error) {
	depth := strings.Count(prefix, "/")
	m.mu.RLock()
	var names []string
	for name := range m.objects {
		if strings.HasPrefix(name, prefix) && strings.Count(name, "/") == depth {
			names = append(names, name)
		}
	}
	m.mu.RUnlock()
	return sortedNames(names), nil
}

// Delete implements Backend.
func (m *Mem) Delete(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.objects[name]; !ok {
		return m.notExist("remove", name)
	}
	delete(m.objects, name)
	return nil
}

// Rename implements Backend.
func (m *Mem) Rename(old, new string) error {
	if !ValidName(new) {
		return &Error{Op: "rename", Backend: m.Name(), Name: new, Err: fmt.Errorf("invalid object name")}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	obj, ok := m.objects[old]
	if !ok {
		return m.notExist("rename", old)
	}
	delete(m.objects, old)
	m.objects[new] = obj
	return nil
}

// Sweep implements Backend: Mem writes have no temp stage, so only
// aged quarantined objects are swept.
func (m *Mem) Sweep(olderThan time.Duration) int {
	cutoff := time.Now().Add(-olderThan)
	m.mu.Lock()
	defer m.mu.Unlock()
	removed := 0
	for name, obj := range m.objects {
		if strings.HasPrefix(name, QuarantinePrefix) && obj.modTime.Before(cutoff) {
			delete(m.objects, name)
			removed++
		}
	}
	return removed
}

// Len returns the number of stored objects (tests).
func (m *Mem) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.objects)
}
