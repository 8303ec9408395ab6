package storage_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/storage/blob"
	"repro/internal/storage/blob/storagetest"
)

func TestFaultReadFlipDamagesExactlyOneBit(t *testing.T) {
	mem := blob.NewMem()
	payload := bytes.Repeat([]byte("deterministic payload "), 100)
	if err := mem.Put("a.bin", func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	f := blob.NewFault(mem, blob.Faults{Seed: 42, ReadFlip: 1})
	rc, err := f.Get("a.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatalf("read flip must not surface as an error: %v", err)
	}
	if len(got) != len(payload) {
		t.Fatalf("read flip changed the length: %d vs %d", len(got), len(payload))
	}
	diffBits := 0
	for i := range got {
		for x := got[i] ^ payload[i]; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("read flip damaged %d bits, want exactly 1", diffBits)
	}
	if n := f.InjectedReadFlips(); n != 1 {
		t.Fatalf("InjectedReadFlips = %d, want 1", n)
	}
	// The object at rest is untouched — the damage was in flight.
	if storagetest.Get(t, mem, "a.bin") != string(payload) {
		t.Fatal("read flip damaged the stored object")
	}
}

func TestFaultReadFlipDeterministicPerSeed(t *testing.T) {
	read := func(seed int64) []byte {
		mem := blob.NewMem()
		payload := bytes.Repeat([]byte("x"), 4096)
		mem.Put("a.bin", func(w io.Writer) error {
			_, err := w.Write(payload)
			return err
		})
		f := blob.NewFault(mem, blob.Faults{Seed: seed, ReadFlip: 1})
		rc, err := f.Get("a.bin")
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		data, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if !bytes.Equal(read(7), read(7)) {
		t.Fatal("same seed must flip the same bit")
	}
}

func TestParseFaultsReadFlip(t *testing.T) {
	f, err := blob.ParseFaults("seed=3,readflip=0.25")
	if err != nil {
		t.Fatal(err)
	}
	if f.ReadFlip != 0.25 || f.Seed != 3 {
		t.Fatalf("parsed: %+v", f)
	}
	if _, err := blob.ParseFaults("readflip=1.5"); err == nil {
		t.Fatal("out-of-range readflip must be rejected")
	}
}
