package storage_test

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"strings"
	"testing"
	"time"

	"repro/internal/storage/blob"
)

// opSequence drives a fixed operation sequence against a fault backend
// and records which operations failed — the determinism fixture.
func opSequence(t *testing.T, b *blob.Fault) string {
	t.Helper()
	var log strings.Builder
	mark := func(op string, err error) {
		if err != nil {
			log.WriteString(op + "!")
		} else {
			log.WriteString(op + ".")
		}
	}
	for i := 0; i < 50; i++ {
		mark("put", b.Put("obj.bin", func(w io.Writer) error {
			_, err := w.Write(bytes.Repeat([]byte("payload "), 64))
			return err
		}))
		rc, err := b.Get("obj.bin")
		if err == nil {
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
		}
		if err != nil && errors.Is(err, fs.ErrNotExist) {
			err = nil // a prior injected write error legitimately left no object
		}
		mark("get", err)
		_, err = b.Stat("obj.bin")
		if errors.Is(err, fs.ErrNotExist) {
			err = nil
		}
		mark("stat", err)
	}
	return log.String()
}

func TestFaultDeterminism(t *testing.T) {
	spec := blob.Faults{Seed: 7, ReadErr: 0.2, WriteErr: 0.15, OpErr: 0.1}
	a := opSequence(t, blob.NewFault(blob.NewMem(), spec))
	b := opSequence(t, blob.NewFault(blob.NewMem(), spec))
	if a != b {
		t.Fatalf("same seed, same op order, different faults:\n%s\n%s", a, b)
	}
	c := opSequence(t, blob.NewFault(blob.NewMem(), blob.Faults{Seed: 8, ReadErr: 0.2, WriteErr: 0.15, OpErr: 0.1}))
	if a == c {
		t.Fatal("different seeds produced identical fault sequences (suspicious)")
	}
	if !strings.Contains(a, "!") {
		t.Fatal("no fault fired in 150 operations at these rates")
	}
}

func TestFaultInjectedErrorsAreTransient(t *testing.T) {
	b := blob.NewFault(blob.NewMem(), blob.Faults{WriteErr: 1})
	err := b.Put("x.bin", func(w io.Writer) error { return nil })
	if !blob.IsTransient(err) || !errors.Is(err, blob.ErrInjected) {
		t.Fatalf("injected write error must be transient and wrap ErrInjected: %v", err)
	}
	b = blob.NewFault(blob.NewMem(), blob.Faults{ReadErr: 1, Seed: 3})
	// At ReadErr=1 every Get fails: half open errors, half mid-stream.
	inner := b.Inner()
	if err := inner.Put("x.bin", func(w io.Writer) error {
		_, err := w.Write(bytes.Repeat([]byte{0xAB}, 128<<10))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rc, err := b.Get("x.bin")
		if err == nil {
			_, err = io.Copy(io.Discard, rc)
			rc.Close()
			if err == nil {
				t.Fatal("ReadErr=1 Get read through cleanly")
			}
		}
		if !blob.IsTransient(err) {
			t.Fatalf("injected read error must be transient: %v", err)
		}
	}
}

func TestFaultTornWriteCommitsPrefix(t *testing.T) {
	b := blob.NewFault(blob.NewMem(), blob.Faults{TornWrite: 1, Seed: 1})
	full := bytes.Repeat([]byte("0123456789abcdef"), 16<<10) // 256 KiB > 64 KiB cut window
	if err := b.Put("torn.bin", func(w io.Writer) error {
		_, err := w.Write(full)
		return err
	}); err != nil {
		t.Fatalf("a torn write must COMMIT (return nil): %v", err)
	}
	rc, err := b.Get("torn.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(full) {
		t.Fatalf("torn object is %d bytes of %d, want a strict non-empty prefix", len(got), len(full))
	}
	if !bytes.Equal(got, full[:len(got)]) {
		t.Fatal("torn object is not a prefix of the written bytes")
	}
	_, _, _, torn, _ := b.Injected()
	if torn != 1 {
		t.Fatalf("torn counter = %d, want 1", torn)
	}
}

func TestFaultBitFlipDamagesCopyNotCaller(t *testing.T) {
	b := blob.NewFault(blob.NewMem(), blob.Faults{BitFlip: 1, Seed: 2})
	orig := bytes.Repeat([]byte{0x5A}, 4096)
	mine := append([]byte(nil), orig...)
	if err := b.Put("flip.bin", func(w io.Writer) error {
		_, err := w.Write(mine)
		return err
	}); err != nil {
		t.Fatalf("a bit-flipped write must COMMIT: %v", err)
	}
	if !bytes.Equal(mine, orig) {
		t.Fatal("fault injector mutated the caller's write buffer (io.Writer contract violation)")
	}
	rc, err := b.Get("flip.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, orig) {
		t.Fatal("BitFlip=1 stored undamaged bytes")
	}
	diff := 0
	for i := range got {
		diff += popcount(got[i] ^ orig[i])
	}
	if diff != 1 {
		t.Fatalf("stored object differs by %d bits, want exactly 1 per write call", diff)
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestFaultZeroSpecIsTransparent(t *testing.T) {
	b := blob.NewFault(blob.NewMem(), blob.Faults{})
	for i := 0; i < 100; i++ {
		if err := b.Put("x.bin", func(w io.Writer) error {
			_, err := io.WriteString(w, "clean")
			return err
		}); err != nil {
			t.Fatal(err)
		}
		rc, err := b.Get("x.bin")
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil || string(data) != "clean" {
			t.Fatalf("zero-fault backend damaged data: %q, %v", data, err)
		}
	}
	r, w, o, torn, flips := b.Injected()
	if r+w+o+torn+flips != 0 {
		t.Fatal("zero spec injected faults")
	}
}

func TestParseFaults(t *testing.T) {
	f, err := blob.ParseFaults("seed=7,readerr=0.1,writeerr=0.2,operr=0.02,tornwrite=0.05,bitflip=0.03,latency=2ms")
	if err != nil {
		t.Fatal(err)
	}
	want := blob.Faults{Seed: 7, ReadErr: 0.1, WriteErr: 0.2, OpErr: 0.02, TornWrite: 0.05, BitFlip: 0.03, MaxLatency: 2 * time.Millisecond}
	if f != want {
		t.Fatalf("parsed %+v, want %+v", f, want)
	}
	for _, bad := range []string{"", "readerr=2", "readerr=-0.1", "bogus=1", "readerr", "latency=-1s", "seed=x"} {
		if _, err := blob.ParseFaults(bad); err == nil {
			t.Errorf("ParseFaults(%q) accepted an invalid spec", bad)
		}
	}
}
