package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"
)

// TestConfigKeyCoversEveryField perturbs each Config field in turn and
// requires a different Key: stored results are looked up by it, so a
// field the key ignores would serve one configuration's numbers for
// another. A field of a kind the test cannot perturb fails it too —
// extend both Key and this test when Config grows.
func TestConfigKeyCoversEveryField(t *testing.T) {
	base := Config{PEs: 2, SizeWords: 256, LineWords: 4, Protocol: Hybrid, Assoc: 2}
	rt := reflect.TypeOf(base)
	for i := 0; i < rt.NumField(); i++ {
		changed := base
		f := reflect.ValueOf(&changed).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint8:
			f.SetUint(f.Uint() + 1)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("Config.%s has kind %s: teach this test to perturb it and add it to Config.Key", rt.Field(i).Name, f.Kind())
		}
		if changed.Key() == base.Key() {
			t.Errorf("Config.Key ignores %s: %q for both %+v and %+v", rt.Field(i).Name, base.Key(), base, changed)
		}
	}
}

// The pinned pair of TestSimVersionGolden. Regenerate by running the
// test and copying the digest it prints.
const (
	goldenSimVersion = "sim1"
	goldenSimDigest  = "f5e28ec078c36790f3e00ab0f06edb73dbfe84c581807bd40d60a661d9504791"
)

// TestSimVersionGolden pins a digest of the kernels' Stats — deriv and
// qsort at 1 and 8 PEs, every protocol, both allocation regimes, fully
// associative and 2-way — together with SimVersion. Stored simulation
// results are trusted for as long as SimVersion stands, so output that
// moves under an unchanged version would be served stale: this is the
// semantic twin of rapwamlint's versionbump shape fingerprint.
func TestSimVersionGolden(t *testing.T) {
	h := sha256.New()
	for _, name := range []string{"deriv", "qsort"} {
		for _, pes := range []int{1, 8} {
			buf := parityTrace(t, name, pes, pes == 1)
			var cfgs []Config
			for _, proto := range Protocols() {
				for _, size := range []int{64, 1024} {
					for _, assoc := range []int{0, 2} {
						cfg := Config{PEs: pes, SizeWords: size, LineWords: 4, Protocol: proto,
							WriteAllocate: PaperWriteAllocate(proto, size), Assoc: assoc}
						if cfg.Validate() == nil { // copyback is 1-PE only
							cfgs = append(cfgs, cfg)
						}
					}
				}
			}
			sts, err := SimulateAll(buf, cfgs)
			if err != nil {
				t.Fatal(err)
			}
			for i, st := range sts {
				fmt.Fprintf(h, "%s: %s: %+v\n", name, cfgs[i].Key(), st)
			}
		}
	}
	digest := hex.EncodeToString(h.Sum(nil))
	switch {
	case digest == goldenSimDigest && SimVersion == goldenSimVersion:
	case SimVersion == goldenSimVersion:
		t.Fatalf("kernel output changed: bump cache.SimVersion and regenerate (digest is now %s, pinned %s at %q)",
			digest, goldenSimDigest, goldenSimVersion)
	default:
		t.Fatalf("cache.SimVersion is %q but the golden pins %q: regenerate (goldenSimVersion = %q, goldenSimDigest = %q)",
			SimVersion, goldenSimVersion, SimVersion, digest)
	}
}

// TestConfigKeyPinned pins Key for a handful of configurations: stored
// result objects are keyed by these strings, so building them any
// other way must not move a byte. The values are the ones the
// fmt.Sprintf form produced.
func TestConfigKeyPinned(t *testing.T) {
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{PEs: 8, SizeWords: 1024, LineWords: 4, Protocol: Hybrid, WriteAllocate: true}, "pes=8 size=1024 line=4 proto=hybrid walloc=true assoc=0"},
		{Config{PEs: 1, SizeWords: 64, LineWords: 4, Protocol: WriteThrough}, "pes=1 size=64 line=4 proto=write-through walloc=false assoc=0"},
		{Config{PEs: 4, SizeWords: 8192, LineWords: 8, Protocol: WriteInBroadcast, Assoc: 4}, "pes=4 size=8192 line=8 proto=write-in-broadcast walloc=false assoc=4"},
		{Config{PEs: 64, SizeWords: 256, LineWords: 1, Protocol: WriteThroughBroadcast, WriteAllocate: true, Assoc: 1}, "pes=64 size=256 line=1 proto=write-through-broadcast walloc=true assoc=1"},
		{Config{PEs: -1, Protocol: Protocol(9), Assoc: -2}, "pes=-1 size=0 line=0 proto=protocol(9) walloc=false assoc=-2"},
	} {
		if got := c.cfg.Key(); got != c.want {
			t.Errorf("%+v: Key %q, want %q", c.cfg, got, c.want)
		}
	}
}
