package tracestore_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/bench"
	"repro/internal/busmodel"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/objcodec"
	"repro/internal/tracestore"
)

// Tests of the stored object format over the real stored types: the run
// sidecar (bench.RunRecord), and the result kinds sim (cache.Stats) and
// des (experiments.BusRecord).

// objectKinds lists the kinds in a fixed order.
var objectKinds = []string{tracestore.SidecarKind, "sim", "des"}

// goldenObjects encodes one fixed object of each kind.
func goldenObjects() map[string][]byte {
	rec := bench.RunRecord{
		Success: true,
		Stats: core.Stats{
			Cycles:       123456,
			Instructions: []int64{1000, 2000},
			WorkRefs:     []int64{3000, 4000},
			RunCycles:    []int64{500, 600},
			WaitCycles:   []int64{7, 0},
			IdleCycles:   []int64{0, 90},
			Inferences:   321, Parcalls: 12, GoalsParallel: 24, GoalsStolen: 6,
			StealProbes: 40, Kills: 1, CheckFails: 2,
			MaxHeap: 4096, MaxLocal: 512, MaxControl: 256, MaxTrail: 64,
		},
	}
	rec.Refs.ByObj[1] = [2]int64{100, 50}
	rec.Refs.ByObj[3] = [2]int64{0, 25}
	rec.Refs.ByPE[0], rec.Refs.ByPE[1] = 120, 55
	k := tracestore.Key{Benchmark: "qsort", PEs: 2, EmulatorVersion: "emuG"}
	st := cache.Stats{Refs: 1000, Reads: 600, Writes: 400, ReadMisses: 30, WriteMisses: 20,
		BusWords: 250, LineFills: 40, WriteBacks: 10, WriteThroughs: 50, Updates: 0, Invalidations: 5}
	return map[string][]byte{
		tracestore.SidecarKind: tracestore.EncodeSidecar(&rec),
		"sim": tracestore.EncodeResults("sim", tracestore.ResultsObject[cache.Stats]{
			Key: k, CodecVersion: 1, Version: "sim1",
			Results: map[string]cache.Stats{"size=64": st, "size=128": {Refs: 1000, BusWords: 99}},
		}),
		"des": tracestore.EncodeResults("des", tracestore.ResultsObject[experiments.BusRecord]{
			Key: k, CodecVersion: 1, Version: "sim1+des1",
			Results: map[string]experiments.BusRecord{"bus=4": {
				DES:   busmodel.Result{Utilization: 0.56, MeanWaitCycles: math.Pi, Efficiency: 1 / 3.0},
				Stats: st,
			}},
		}),
	}
}

// The pinned digests of TestObjectGoldenBytes, for goldenObjectVersion.
const goldenObjectVersion = 1

var goldenObjectDigests = map[string]string{
	tracestore.SidecarKind: "0a9deed098964eb2b092a7c0f072e593ec13cb36c476dfef8ede48097c2abd3f",
	"sim":                  "a6b4759fde69fb4191acbf29317fbfa9a6fcb0eac08dbf8d29e01f489c0494b0",
	"des":                  "120fc63ce170aa74d32834be01c6f83a737e6021d5e4e923db6c065b1f148980",
}

// TestObjectGoldenBytes pins the bytes of one object of each kind
// together with ObjectVersion, as TestSimVersionGolden pins the cache
// kernels' output with SimVersion: objects are read by their version's
// extension alone, so bytes that move under an unchanged version would
// be misread by every other build of that version.
func TestObjectGoldenBytes(t *testing.T) {
	if want := ".rwo" + strconv.Itoa(tracestore.ObjectVersion); tracestore.ObjectExt != want {
		t.Errorf("ObjectExt is %q, want %q: the extension names the format version", tracestore.ObjectExt, want)
	}
	objects := goldenObjects()
	for _, kind := range objectKinds {
		sum := sha256.Sum256(objects[kind])
		got := hex.EncodeToString(sum[:])
		switch {
		case got == goldenObjectDigests[kind] && tracestore.ObjectVersion == goldenObjectVersion:
		case tracestore.ObjectVersion == goldenObjectVersion:
			t.Errorf("the bytes of a %s object moved (sha256 %s, pinned %s) under ObjectVersion %d: bump tracestore.ObjectVersion and ObjectExt, then re-pin",
				kind, got, goldenObjectDigests[kind], goldenObjectVersion)
		default:
			t.Errorf("ObjectVersion is %d, the pinned digests are for %d: re-pin goldenObjectVersion and the %s digest %q",
				tracestore.ObjectVersion, goldenObjectVersion, kind, got)
		}
	}
}

// fill sets every field reachable from v — through structs, arrays and
// slices — to a distinct non-zero value.
func fill(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(t, v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), next)
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		for i := 0; i < v.Len(); i++ {
			fill(t, v.Index(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Float64:
		*next++
		v.SetFloat(float64(*next) + 0.25)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("a stored field has kind %s: teach fill to set it, and its codec to write it", v.Kind())
	}
}

// coversEveryField fills a T, encodes it and decodes it into a zero T.
func coversEveryField[T any, P interface {
	*T
	objcodec.Value
}](t *testing.T) {
	t.Helper()
	var want, got T
	var next int64
	fill(t, reflect.ValueOf(&want).Elem(), &next)
	e := objcodec.NewEncoder(nil)
	P(&want).Encode(e)
	d := objcodec.NewDecoder(e.Bytes())
	P(&got).Decode(d)
	if err := d.Finish(); err != nil {
		t.Fatalf("%T: %v", want, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%T does not survive its codec: a field is not written or not read back\n got %+v\nwant %+v", want, got, want)
	}
}

// TestObjectFieldCoverage fails when a stored type gains a field its
// codec does not write.
func TestObjectFieldCoverage(t *testing.T) {
	coversEveryField[bench.RunRecord](t)
	coversEveryField[cache.Stats](t)
	coversEveryField[experiments.BusRecord](t)
}

// reencodes decodes data as an object of every kind; what a decoder
// accepts must encode back to data byte for byte.
func reencodes(t *testing.T, data []byte) {
	var rec bench.RunRecord
	if tracestore.DecodeSidecar(data, &rec) == nil {
		if got := tracestore.EncodeSidecar(&rec); !bytes.Equal(got, data) {
			t.Fatalf("accepted run record re-encodes differently:\n got %x\nwant %x", got, data)
		}
	}
	if o, err := tracestore.DecodeResults[cache.Stats](data, "sim"); err == nil {
		if got := tracestore.EncodeResults("sim", o); !bytes.Equal(got, data) {
			t.Fatalf("accepted sim object re-encodes differently:\n got %x\nwant %x", got, data)
		}
	}
	if o, err := tracestore.DecodeResults[experiments.BusRecord](data, "des"); err == nil {
		if got := tracestore.EncodeResults("des", o); !bytes.Equal(got, data) {
			t.Fatalf("accepted des object re-encodes differently:\n got %x\nwant %x", got, data)
		}
	}
}

// FuzzDecodeObject: no bytes make a decoder panic, and whatever one
// accepts is the canonical encoding of what it decoded. Each input is
// tried as a stored object and as a payload behind a valid envelope,
// so mutations reach the decoders past the checksum. Seeds: one object
// of each kind, truncated, with a trailing byte, and its bare payload.
func FuzzDecodeObject(f *testing.F) {
	objects := goldenObjects()
	for _, kind := range objectKinds {
		obj := objects[kind]
		f.Add(obj)
		f.Add(obj[:len(obj)-1])
		f.Add(obj[:len(obj)/2])
		f.Add(append(obj[:len(obj):len(obj)], 0))
		f.Add(obj[tracestore.ObjectHeaderLen:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reencodes(t, data)
		reencodes(t, tracestore.SealPayload(data))
	})
}

// TestGoldenObjectsDecode: the seeds are accepted whole and rejected
// truncated or extended.
func TestGoldenObjectsDecode(t *testing.T) {
	objects := goldenObjects()
	decode := map[string]func([]byte) error{
		tracestore.SidecarKind: func(b []byte) error { return tracestore.DecodeSidecar(b, new(bench.RunRecord)) },
		"sim": func(b []byte) error {
			_, err := tracestore.DecodeResults[cache.Stats](b, "sim")
			return err
		},
		"des": func(b []byte) error {
			_, err := tracestore.DecodeResults[experiments.BusRecord](b, "des")
			return err
		},
	}
	for _, kind := range objectKinds {
		obj := objects[kind]
		if err := decode[kind](obj); err != nil {
			t.Errorf("%s object rejected: %v", kind, err)
		}
		payload := obj[tracestore.ObjectHeaderLen:]
		for name, bad := range map[string][]byte{
			"truncated":     obj[:len(obj)-1],
			"trailing byte": append(obj[:len(obj):len(obj)], 0),
			// Past the checksum: the payload itself runs short or over.
			"short payload": tracestore.SealPayload(payload[:len(payload)-1]),
			"long payload":  tracestore.SealPayload(append(payload[:len(payload):len(payload)], 0)),
		} {
			if err := decode[kind](bad); err == nil {
				t.Errorf("%s object %s accepted", kind, name)
			}
		}
		for _, other := range objectKinds {
			if other != kind && decode[other](obj) == nil {
				t.Errorf("%s object accepted as %s", kind, other)
			}
		}
	}
}
