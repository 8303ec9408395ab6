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
