// Package storagetest exports the blob.Backend contract as a
// reusable test suite: every backend — local, in-memory, networked, or
// a composition — must behave identically above the interface, and the
// only way to keep that true as backends multiply is to run them all
// through the same tests. Backend implementations call TestBackend
// from their own test files with a factory for a fresh, empty
// instance; a read-only backend (a blob-protocol client) calls
// TestReader, whose cases write through the backends it reads from.
package storagetest

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage/blob"
)

// Factory returns a fresh, empty backend for one subtest. Register
// cleanup on t; the suite never closes backends itself.
type Factory func(t *testing.T) blob.Backend

// ReaderFactory returns a fresh, empty read-only backend r for one
// subtest, and a backend w whose objects r reads (for a network
// client: the serving nodes' own backends).
type ReaderFactory func(t *testing.T) (r, w blob.Backend)

// readCases are the cases about what a reader observes of the objects
// a writer made: each writes through w and reads through r.
var readCases = []struct {
	name string
	run  func(t *testing.T, w, r blob.Backend)
}{
	{"RoundTrip", testRoundTrip},
	{"MissIsNotExist", testMissIsNotExist},
	{"LargeObjectWrites", testLargeObjectWrites},
	{"ListAndNamespaces", testListAndNamespaces},
	{"RenameQuarantines", testRenameQuarantines},
}

// writeCases are the rest of the contract: what a backend's own
// writes do.
var writeCases = []struct {
	name string
	run  func(t *testing.T, b blob.Backend)
}{
	{"PutInvalidName", testPutInvalidName},
	{"PutFailureLeavesNoTrace", testPutFailureLeavesNoTrace},
	{"PutPanicCleansUp", testPutPanicCleansUp},
	{"WriterSeeks", testWriterSeeks},
	{"SweepAgesOutQuarantine", testSweepAgesOutQuarantine},
	{"ConcurrentPuts", testConcurrentPuts},
	{"Probe", testProbe},
}

// TestBackend runs the full Backend contract over backends produced
// by open, each read case with one backend as writer and reader. Each
// subtest gets its own fresh instance.
func TestBackend(t *testing.T, open Factory) {
	for _, tc := range readCases {
		t.Run(tc.name, func(t *testing.T) {
			b := open(t)
			tc.run(t, b, b)
		})
	}
	for _, tc := range writeCases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, open(t))
		})
	}
}

// TestReader runs the read half of the contract: every read case
// writes through the w that open returns and reads through its r.
func TestReader(t *testing.T, open ReaderFactory) {
	for _, tc := range readCases {
		t.Run(tc.name, func(t *testing.T) {
			r, w := open(t)
			tc.run(t, w, r)
		})
	}
}

// Put writes content as name, failing the test on error.
func Put(t *testing.T, b blob.Backend, name, content string) {
	t.Helper()
	if err := b.Put(name, func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	}); err != nil {
		t.Fatalf("put %q: %v", name, err)
	}
}

// Get reads name fully, failing the test on error.
func Get(t *testing.T, b blob.Backend, name string) string {
	t.Helper()
	rc, err := b.Get(name)
	if err != nil {
		t.Fatalf("get %q: %v", name, err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read %q: %v", name, err)
	}
	return string(data)
}

func testRoundTrip(t *testing.T, w, r blob.Backend) {
	Put(t, w, "a.bin", "hello")
	if got := Get(t, r, "a.bin"); got != "hello" {
		t.Fatalf("round trip: got %q", got)
	}
	// Replace atomically.
	Put(t, w, "a.bin", "world")
	if got := Get(t, r, "a.bin"); got != "world" {
		t.Fatalf("replace: got %q", got)
	}
	info, err := r.Stat("a.bin")
	if err != nil || info.Size != 5 {
		t.Fatalf("stat: %+v, %v", info, err)
	}
}

func testMissIsNotExist(t *testing.T, w, r blob.Backend) {
	if _, err := r.Get("nope.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("get miss: %v", err)
	}
	if _, err := r.Stat("nope.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat miss: %v", err)
	}
	if err := w.Delete("nope.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("delete miss: %v", err)
	}
}

func testPutInvalidName(t *testing.T, b blob.Backend) {
	for _, name := range []string{"", "/abs.bin", "a/../b.bin", "trail/"} {
		err := b.Put(name, func(w io.Writer) error {
			_, err := io.WriteString(w, "x")
			return err
		})
		if err == nil {
			t.Fatalf("put %q succeeded, want invalid-name error", name)
		}
		if errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("put %q: invalid name must not classify as a miss: %v", name, err)
		}
	}
}

func testPutFailureLeavesNoTrace(t *testing.T, b blob.Backend) {
	boom := errors.New("generator exploded")
	Put(t, b, "keep.bin", "original")
	err := b.Put("keep.bin", func(w io.Writer) error {
		io.WriteString(w, "partial garbage")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("put must return the callback error identically, got %v", err)
	}
	if got := Get(t, b, "keep.bin"); got != "original" {
		t.Fatalf("failed put replaced the object: %q", got)
	}
	// A failed put of a NEW object must not create it.
	if err := b.Put("new.bin", func(w io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if _, err := b.Stat("new.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("failed put created the object: %v", err)
	}
}

func testPutPanicCleansUp(t *testing.T, b blob.Backend) {
	func() {
		defer func() { recover() }()
		//rapwam:allow errortaxonomy the writer panics deliberately; the assertion below is that no object materialized
		b.Put("x.bin", func(w io.Writer) error {
			io.WriteString(w, "half")
			panic("writer died")
		})
	}()
	if _, err := b.Stat("x.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("panicking put left an object: %v", err)
	}
}

func testWriterSeeks(t *testing.T, b blob.Backend) {
	// The trace codec back-patches its header; every backend must hand
	// Put an io.WriteSeeker.
	err := b.Put("patched.bin", func(w io.Writer) error {
		ws, ok := w.(io.WriteSeeker)
		if !ok {
			return fmt.Errorf("writer is %T, not an io.WriteSeeker", w)
		}
		if _, err := io.WriteString(ws, "????rest"); err != nil {
			return err
		}
		if _, err := ws.Seek(0, io.SeekStart); err != nil {
			return err
		}
		_, err := io.WriteString(ws, "head")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := Get(t, b, "patched.bin"); got != "headrest" {
		t.Fatalf("patched object: %q", got)
	}
}

func testLargeObjectWrites(t *testing.T, w, r blob.Backend) {
	// An object of several MiB written in odd-sized pieces, patched
	// after seeks back across every OS page boundary (an in-memory
	// backend's own pages start at such boundaries), then extended by a
	// write past the end that leaves a gap of more than a MiB. want
	// models the file the backend must hold.
	page := os.Getpagesize()
	want := make([]byte, 0, 5<<20)
	for len(want) < 5<<19 {
		want = append(want, byte(len(want)*7), byte(len(want)>>8))
	}
	err := w.Put("large.bin", func(out io.Writer) error {
		ws, ok := out.(io.WriteSeeker)
		if !ok {
			return fmt.Errorf("writer is %T, not an io.WriteSeeker", out)
		}
		for off, piece := 0, 4093; off < len(want); off, piece = off+piece, 7919+4093-piece {
			if _, err := ws.Write(want[off:min(off+piece, len(want))]); err != nil {
				return err
			}
		}
		for off := page; off+3 <= len(want); off += page {
			patch := []byte{0xF0, 0xF1, 0xF2, 0xF3, 0xF4}
			copy(want[off-2:], patch)
			if _, err := ws.Seek(int64(off-2), io.SeekStart); err != nil {
				return err
			}
			if _, err := ws.Write(patch); err != nil {
				return err
			}
		}
		gap := 3<<19 + 5
		if _, err := ws.Seek(int64(gap), io.SeekEnd); err != nil {
			return err
		}
		want = append(want, make([]byte, gap)...)
		want = append(want, "tail"...)
		_, err := io.WriteString(ws, "tail")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := r.Stat("large.bin")
	if err != nil || info.Size != int64(len(want)) {
		t.Fatalf("stat: %+v, %v; want size %d", info, err, len(want))
	}
	got := Get(t, r, "large.bin")
	if got == string(want) {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("read %d bytes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("byte %d reads %#x, want %#x", i, got[i], want[i])
		}
	}
}

func testListAndNamespaces(t *testing.T, w, r blob.Backend) {
	Put(t, w, "b.bin", "1")
	Put(t, w, "a.bin", "2")
	Put(t, w, blob.QuarantinePrefix+"c.bin", "3")
	root, err := r.List("")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(root) != "[a.bin b.bin]" {
		t.Fatalf("root list: %v (quarantine must not leak into the root namespace)", root)
	}
	quar, err := r.List(blob.QuarantinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(quar) != "[quarantine/c.bin]" {
		t.Fatalf("quarantine list: %v", quar)
	}
	// Absent sub-namespace is empty, not an error.
	none, err := r.List("absent/")
	if err != nil || len(none) != 0 {
		t.Fatalf("absent namespace: %v, %v", none, err)
	}
}

func testRenameQuarantines(t *testing.T, w, r blob.Backend) {
	Put(t, w, "bad.bin", "damaged")
	if err := w.Rename("bad.bin", blob.QuarantinePrefix+"bad.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Stat("bad.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("rename left the source: %v", err)
	}
	if got := Get(t, r, blob.QuarantinePrefix+"bad.bin"); got != "damaged" {
		t.Fatalf("quarantined content: %q", got)
	}
}

func testSweepAgesOutQuarantine(t *testing.T, b blob.Backend) {
	Put(t, b, "live.bin", "keep me")
	Put(t, b, blob.QuarantinePrefix+"old.bin", "age me out")
	// Age by waiting: backends time quarantine entries by commit time,
	// and the factory may not expose the medium.
	time.Sleep(50 * time.Millisecond)
	if n := b.Sweep(10 * time.Millisecond); n != 1 {
		t.Fatalf("sweep removed %d objects, want 1", n)
	}
	if _, err := b.Stat(blob.QuarantinePrefix + "old.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("aged quarantine object survived: %v", err)
	}
	if got := Get(t, b, "live.bin"); got != "keep me" {
		t.Fatalf("sweep touched a live object: %q", got)
	}
}

func testConcurrentPuts(t *testing.T, b blob.Backend) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			content := strings.Repeat(fmt.Sprintf("writer-%d ", i), 100)
			//rapwam:allow errortaxonomy racing writers may fail benignly; the test asserts one intact winner afterwards
			b.Put("contested.bin", func(w io.Writer) error {
				_, err := io.WriteString(w, content)
				return err
			})
		}(i)
	}
	wg.Wait()
	// Whoever won, the object must be one writer's COMPLETE output —
	// never interleaved or truncated.
	got := Get(t, b, "contested.bin")
	matched := false
	for i := 0; i < 8; i++ {
		if got == strings.Repeat(fmt.Sprintf("writer-%d ", i), 100) {
			matched = true
		}
	}
	if !matched {
		t.Fatalf("contested object is not any single writer's output (%d bytes)", len(got))
	}
}

func testProbe(t *testing.T, b blob.Backend) {
	if err := blob.Probe(b); err != nil {
		t.Fatal(err)
	}
	// The probe cleans up after itself.
	names, err := b.List("")
	if err != nil || len(names) != 0 {
		t.Fatalf("probe left droppings: %v, %v", names, err)
	}
}
