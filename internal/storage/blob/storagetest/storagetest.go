// Package storagetest exports the blob.Backend contract as a
// reusable test suite: every backend — local, in-memory, networked, or
// a composition — must behave identically above the interface, and the
// only way to keep that true as backends multiply is to run them all
// through the same tests. Backend implementations call TestBackend
// from their own test files with a factory for a fresh, empty
// instance.
package storagetest

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage/blob"
)

// Factory returns a fresh, empty backend for one subtest. Register
// cleanup on t; the suite never closes backends itself.
type Factory func(t *testing.T) blob.Backend

// TestBackend runs the full Backend contract over backends produced
// by open. Each subtest gets its own fresh instance.
func TestBackend(t *testing.T, open Factory) {
	suite := []struct {
		name string
		run  func(t *testing.T, b blob.Backend)
	}{
		{"RoundTrip", testRoundTrip},
		{"MissIsNotExist", testMissIsNotExist},
		{"PutInvalidName", testPutInvalidName},
		{"PutFailureLeavesNoTrace", testPutFailureLeavesNoTrace},
		{"PutPanicCleansUp", testPutPanicCleansUp},
		{"WriterSeeks", testWriterSeeks},
		{"ListAndNamespaces", testListAndNamespaces},
		{"RenameQuarantines", testRenameQuarantines},
		{"SweepAgesOutQuarantine", testSweepAgesOutQuarantine},
		{"ConcurrentPuts", testConcurrentPuts},
		{"Probe", testProbe},
	}
	for _, tc := range suite {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, open(t))
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

func testRoundTrip(t *testing.T, b blob.Backend) {
	Put(t, b, "a.bin", "hello")
	if got := Get(t, b, "a.bin"); got != "hello" {
		t.Fatalf("round trip: got %q", got)
	}
	// Replace atomically.
	Put(t, b, "a.bin", "world")
	if got := Get(t, b, "a.bin"); got != "world" {
		t.Fatalf("replace: got %q", got)
	}
	info, err := b.Stat("a.bin")
	if err != nil || info.Size != 5 {
		t.Fatalf("stat: %+v, %v", info, err)
	}
}

func testMissIsNotExist(t *testing.T, b blob.Backend) {
	if _, err := b.Get("nope.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("get miss: %v", err)
	}
	if _, err := b.Stat("nope.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat miss: %v", err)
	}
	if err := b.Delete("nope.bin"); !errors.Is(err, fs.ErrNotExist) {
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

func testListAndNamespaces(t *testing.T, b blob.Backend) {
	Put(t, b, "b.bin", "1")
	Put(t, b, "a.bin", "2")
	Put(t, b, blob.QuarantinePrefix+"c.bin", "3")
	root, err := b.List("")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(root) != "[a.bin b.bin]" {
		t.Fatalf("root list: %v (quarantine must not leak into the root namespace)", root)
	}
	quar, err := b.List(blob.QuarantinePrefix)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(quar) != "[quarantine/c.bin]" {
		t.Fatalf("quarantine list: %v", quar)
	}
	// Absent sub-namespace is empty, not an error.
	none, err := b.List("absent/")
	if err != nil || len(none) != 0 {
		t.Fatalf("absent namespace: %v, %v", none, err)
	}
}

func testRenameQuarantines(t *testing.T, b blob.Backend) {
	Put(t, b, "bad.bin", "damaged")
	if err := b.Rename("bad.bin", blob.QuarantinePrefix+"bad.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Stat("bad.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("rename left the source: %v", err)
	}
	if got := Get(t, b, blob.QuarantinePrefix+"bad.bin"); got != "damaged" {
		t.Fatalf("quarantined content: %q", got)
	}
}

func testSweepAgesOutQuarantine(t *testing.T, b blob.Backend) {
	Put(t, b, "live.bin", "keep me")
	Put(t, b, blob.QuarantinePrefix+"old.bin", "age me out")
	// Age by waiting: backends time quarantine entries by commit time,
	// and the factory may not expose the medium (a peer backend's
	// objects live in another process's namespace).
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
