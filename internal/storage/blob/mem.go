package blob

import (
	"fmt"
	"io"
	"io/fs"
	"math/bits"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/osmem"
)

// Mem is an in-memory backend for tests, benchmarks and store-less
// runs (a bench.Runner's private trace store). It implements the full
// Backend contract — atomic Put (the object appears only when the write
// callback succeeds), seekable writers, sorted List — so store-level
// tests exercise exactly the code paths production runs, minus the
// disk. Object bytes live in OS pages (osmem), not in the Go heap: a
// store-less run keeps every trace it made, and as live heap those
// bytes would set the collector's goal.
type Mem struct {
	mu      sync.RWMutex
	objects map[string]*memObject
}

// memBytes is the size of the object pages mapped by every Mem and not
// yet unmapped.
var memBytes atomic.Int64

// maxPage bounds an object's pages: they double from one OS page up to
// maxPage, so a small object is one page and a large one needs one
// mapping per MiB. Pages are never recopied.
const maxPage = 1 << 20

var (
	// firstPage is the first page's length; growBytes is the total of
	// the growPages doubling pages before the first maxPage one.
	firstPage = int64(min(os.Getpagesize(), maxPage))
	growPages = bits.Len64(uint64(maxPage/firstPage)) - 1
	growBytes = maxPage - firstPage
)

// pageOf returns the index of the page holding byte off and the offset
// of that page's first byte.
func pageOf(off int64) (int, int64) {
	if off < growBytes {
		i := bits.Len64(uint64(off/firstPage+1)) - 1
		return i, firstPage * (1<<i - 1)
	}
	n := (off - growBytes) / maxPage
	return growPages + int(n), growBytes + n*maxPage
}

// pageLen is the length of page i.
func pageLen(i int) int {
	if i < growPages {
		return int(firstPage) << i
	}
	return maxPage
}

// memObject is one stored object and the handle on its pages. Only its
// cleanup unmaps them: a reader Get returned holds the handle, so
// Delete, Rename over the name, an overwrite, Sweep or dropping the
// whole Mem never unmaps bytes a replay may still be reading. After the
// Put that made it, nothing writes the object again.
type memObject struct {
	*memPages
	size    int64
	modTime time.Time
}

// memPages is an object's page list, kept apart from the object so
// that it can be the object's cleanup argument: Put arms the cleanup
// before the writer maps any page, and the writer appends to this
// list, which the cleanup then reads whole.
type memPages struct {
	pages [][]byte
}

func (l *memPages) free() {
	for _, p := range l.pages {
		memBytes.Add(-int64(len(p)))
		osmem.Unmap(p)
	}
	l.pages = nil
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{objects: make(map[string]*memObject)}
}

// Name implements Backend.
func (m *Mem) Name() string { return "mem" }

// Buffer is the seekable in-heap write target the cluster tier's
// Peer.Put hands its callback: the same grow-on-write + seek semantics
// as an *os.File, so the trace codec's header back-patch works against
// it too. A request body lives only as long as its request; in Mem's
// mapped pages it would stay resident until a collection ran the
// object's cleanup. The zero value is empty and ready to use.
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
	abs, err := seekTo(w.off, int64(len(w.buf)), offset, whence)
	if err == nil {
		w.off = abs
	}
	return abs, err
}

// seekTo resolves an io.Seeker request against a writer at off over
// size bytes.
func seekTo(off, size, offset int64, whence int) (int64, error) {
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = off + offset
	case io.SeekEnd:
		abs = size + offset
	default:
		return 0, fmt.Errorf("mem: invalid whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("mem: negative seek offset")
	}
	return abs, nil
}

// memWriter is the seekable write target Mem.Put hands its callback: it
// writes straight into the object's pages, mapping each on first need,
// so bytes between the old end and a write past it (after a seek) read
// as zero, as in a file.
type memWriter struct {
	obj  *memObject
	name string
	off  int64
}

func (w *memWriter) Write(p []byte) (int, error) {
	o := w.obj
	n := 0
	for n < len(p) {
		i, start := pageOf(w.off)
		for len(o.pages) <= i {
			page, err := osmem.Map(pageLen(len(o.pages)))
			if err != nil {
				o.size = max(o.size, w.off)
				return n, &Error{Op: "put", Backend: "mem", Name: w.name, Err: err}
			}
			memBytes.Add(int64(len(page)))
			o.pages = append(o.pages, page)
		}
		c := copy(o.pages[i][w.off-start:], p[n:])
		n += c
		w.off += int64(c)
	}
	o.size = max(o.size, w.off)
	return n, nil
}

func (w *memWriter) Seek(offset int64, whence int) (int64, error) {
	abs, err := seekTo(w.off, w.obj.size, offset, whence)
	if err == nil {
		w.off = abs
	}
	return abs, err
}

// memReader reads one object; it holds the handle, so the pages stay
// mapped while it is reachable.
type memReader struct {
	obj *memObject
	off int64
}

func (r *memReader) Read(p []byte) (int, error) {
	o := r.obj
	if r.off >= o.size {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && r.off < o.size {
		i, start := pageOf(r.off)
		end := min(int64(pageLen(i)), o.size-start)
		c := copy(p[n:], o.pages[i][r.off-start:end])
		n += c
		r.off += int64(c)
	}
	// The copies above read pages the handle's cleanup unmaps.
	runtime.KeepAlive(o)
	return n, nil
}

func (r *memReader) Close() error { return nil }

// Put implements Backend: the callback writes into a detached object's
// pages; only a successful return installs the object, so failed or
// panicking writes leave the namespace untouched (the in-memory
// equivalent of temp+rename), and the cleanup unmaps what they wrote.
func (m *Mem) Put(name string, write func(w io.Writer) error) error {
	if !ValidName(name) {
		return &Error{Op: "put", Backend: m.Name(), Name: name, Err: fmt.Errorf("invalid object name")}
	}
	obj := &memObject{memPages: &memPages{}}
	runtime.AddCleanup(obj, (*memPages).free, obj.memPages)
	if err := write(&memWriter{obj: obj, name: name}); err != nil {
		return err
	}
	obj.modTime = time.Now()
	m.mu.Lock()
	m.objects[name] = obj
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
	return &memReader{obj: obj}, nil
}

// Stat implements Backend.
func (m *Mem) Stat(name string) (Info, error) {
	m.mu.RLock()
	obj, ok := m.objects[name]
	m.mu.RUnlock()
	if !ok {
		return Info{}, m.notExist("stat", name)
	}
	return Info{Size: obj.size, ModTime: obj.modTime}, nil
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
