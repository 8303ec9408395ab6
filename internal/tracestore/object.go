package tracestore

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path"
	"sort"
	"strings"

	"repro/internal/objcodec"
	"repro/internal/storage"
	"repro/internal/trace"
)

// A cell's objects other than its trace — the run sidecar and one result
// object per kind — share one binary format (docs/TRACE_FORMAT.md,
// "Stored objects"):
//
//	magic    4 bytes   "RWOB"
//	version  1 byte    ObjectVersion
//	sha256   32 bytes  SHA-256 of the payload
//	payload            kind (string), then the kind's body
//
// The checksum is what keeps a flipped bit from decoding into
// wrong-but-plausible numbers: any mismatch, and any payload that runs
// short or leaves bytes over, is corruption and quarantines the object.
// Bodies are written by the stored types' own codecs (objcodec.Value),
// so the bytes are a function of the value alone: two writers of one
// value write one object.

// ObjectVersion is the object format's version. Bump it, and ObjectExt
// with it, whenever the bytes of any object move — the envelope, the
// result-object layout, or a stored type's codec (TestObjectGoldenBytes
// fails until you do).
const ObjectVersion = 1

// ObjectExt is the extension of every object other than traces. It
// names the format version, so an object of another version — and one
// of the checksummed-JSON format before version 1 (.json) — is a
// foreign file to this build: never read and never quarantined, only
// counted by Verify (ScrubReport.Legacy). A store written by such a
// build is cold for its objects, not damaged.
const ObjectExt = ".rwo1"

// SidecarKind is the kind of a cell's run sidecar: <stem>.run.rwo1.
const SidecarKind = "run"

const (
	objectMagic     = "RWOB"
	objectHeaderLen = len(objectMagic) + 1 + sha256.Size
)

// objectName returns the name of the key's object of a kind.
func (k Key) objectName(kind string) string { return k.stem() + "." + kind + ObjectExt }

// objectKind returns the kind of a current-format object name
// (<stem>.<kind>.rwo1), ok=false for any other name.
func objectKind(name string) (kind string, ok bool) {
	rest, ok := strings.CutSuffix(name, ObjectExt)
	if !ok {
		return "", false
	}
	i := strings.LastIndexByte(rest, '.')
	if i <= 0 || i == len(rest)-1 {
		return "", false
	}
	return rest[i+1:], true
}

// legacyObject reports whether name is an object of an earlier object
// format: checksummed JSON, or another version's extension.
func legacyObject(name string) bool {
	ext := path.Ext(name)
	return ext == ".json" || (strings.HasPrefix(ext, ".rwo") && ext != ObjectExt)
}

// newObject starts encoding an object of a kind: room for the header,
// then the kind.
func newObject(kind string) *objcodec.Encoder {
	e := objcodec.NewEncoder(make([]byte, objectHeaderLen, 512))
	e.String(kind)
	return e
}

// sealObject completes an object newObject started: magic, version and
// the payload's checksum.
func sealObject(e *objcodec.Encoder) []byte {
	b := e.Bytes()
	copy(b, objectMagic)
	b[len(objectMagic)] = ObjectVersion
	sum := sha256.Sum256(b[objectHeaderLen:])
	copy(b[len(objectMagic)+1:], sum[:])
	return b
}

// openObject verifies an object's envelope — magic, version, payload
// checksum and kind — and returns a decoder positioned at its body.
func openObject(data []byte, kind string) (*objcodec.Decoder, error) {
	if len(data) < objectHeaderLen {
		return nil, fmt.Errorf("%d bytes, shorter than the object header", len(data))
	}
	if string(data[:len(objectMagic)]) != objectMagic {
		return nil, fmt.Errorf("bad magic %q", data[:len(objectMagic)])
	}
	if v := data[len(objectMagic)]; v != ObjectVersion {
		return nil, fmt.Errorf("object format version %d, want %d", v, ObjectVersion)
	}
	payload := data[objectHeaderLen:]
	if sum := sha256.Sum256(payload); !bytes.Equal(sum[:], data[len(objectMagic)+1:objectHeaderLen]) {
		return nil, errors.New("payload checksum mismatch")
	}
	d := objcodec.NewDecoder(payload)
	if got := d.String(); d.Err() == nil && got != kind {
		return nil, fmt.Errorf("object of kind %q, want %q", got, kind)
	}
	return d, d.Err()
}

// encodeSidecar encodes v as a run sidecar object.
func encodeSidecar(v objcodec.Value) []byte {
	e := newObject(SidecarKind)
	v.Encode(e)
	return sealObject(e)
}

// decodeSidecar decodes a run sidecar object into v.
func decodeSidecar(data []byte, v objcodec.Value) error {
	d, err := openObject(data, SidecarKind)
	if err != nil {
		return err
	}
	v.Decode(d)
	return d.Finish()
}

// ResultCodec is how LoadResults and PutResults reach a result kind's
// codec at compile time: the kind's Go type T, through *T, is an
// objcodec.Value.
type ResultCodec[T any] interface {
	*T
	objcodec.Value
}

// resultObject is one of a cell's result objects: everything consumers
// of its kind have computed from the cell's trace so far, one result per
// canonical configuration key, stamped with what the results are a
// function of — the cell, the codec its trace was decoded with, and the
// version of the code that computed them. Its body is
//
//	benchmark string, PEs int, sequential bool, emulator version string,
//	codec version int, version string,
//	n uint, then n × (configuration key string, result)
//
// with the keys in strictly ascending byte order.
type resultObject[T any] struct {
	Key          Key
	CodecVersion int
	Version      string
	Results      map[string]T
}

// encodeResults encodes a result object of a kind.
func encodeResults[T any, P ResultCodec[T]](kind string, obj resultObject[T]) []byte {
	keys := make([]string, 0, len(obj.Results))
	for key := range obj.Results {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	e := newObject(kind)
	e.String(obj.Key.Benchmark)
	e.Int(int64(obj.Key.PEs))
	e.Bool(obj.Key.Sequential)
	e.String(obj.Key.EmulatorVersion)
	e.Int(int64(obj.CodecVersion))
	e.String(obj.Version)
	e.Uint(uint64(len(keys)))
	for _, key := range keys {
		e.String(key)
		v := obj.Results[key]
		P(&v).Encode(e)
	}
	return sealObject(e)
}

// decodeResults decodes a result object of a kind.
func decodeResults[T any, P ResultCodec[T]](data []byte, kind string) (resultObject[T], error) {
	var obj resultObject[T]
	d, err := openObject(data, kind)
	if err != nil {
		return obj, err
	}
	obj.Key.Benchmark = d.String()
	obj.Key.PEs = int(d.Int())
	obj.Key.Sequential = d.Bool()
	obj.Key.EmulatorVersion = d.String()
	obj.CodecVersion = int(d.Int())
	obj.Version = d.String()
	n := d.Len()
	obj.Results = make(map[string]T, n)
	var prev string
	for i := 0; i < n && d.Err() == nil; i++ {
		key := d.String()
		if i > 0 && key <= prev {
			d.Failf("result key %q does not follow %q", key, prev)
		}
		var v T
		P(&v).Decode(d)
		obj.Results[key] = v
		prev = key
	}
	return obj, d.Finish()
}

// putObject stores an encoded object under name (atomically, like Put).
func (s *Store) putObject(name string, data []byte) error {
	err := s.b.Put(name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return fmt.Errorf("tracestore: %w", err)
	}
	return nil
}

// loadObject reads the object called name and decodes it with decode,
// reporting ok=false (without error) when no such object exists — and
// likewise when decode fails: the bad object is quarantined and the
// caller recomputes, the same self-healing contract as trace reads. Only
// backend failures surface as errors.
func (s *Store) loadObject(name string, decode func(data []byte) error) (ok bool, err error) {
	rc, err := s.b.Get(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil
		}
		return false, fmt.Errorf("tracestore: %s: %w", name, err)
	}
	data, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		if storage.IsTransient(err) || storage.AsBackendError(err) {
			return false, fmt.Errorf("tracestore: %s: %w", name, err)
		}
		s.quarantine(name)
		return false, nil
	}
	if err := decode(data); err != nil {
		s.quarantine(name)
		return false, nil
	}
	return true, nil
}

// PutSidecar stores v as the key's run sidecar (atomically, like Put).
// The experiments grid stores the generating run's engine statistics
// here (bench.RunRecord) so stats-only drivers skip the emulator too.
func (s *Store) PutSidecar(k Key, v objcodec.Value) error {
	return s.putObject(k.objectName(SidecarKind), encodeSidecar(v))
}

// LoadSidecar decodes the key's run sidecar into v, reporting ok=false
// (without error) when no sidecar exists — and likewise when the
// sidecar is corrupt: the bad object is quarantined and the caller
// regenerates, the same self-healing contract as trace reads. Only
// transient backend failures surface as errors. v is unspecified after
// ok=false.
func (s *Store) LoadSidecar(k Key, v objcodec.Value) (ok bool, err error) {
	return s.loadObject(k.objectName(SidecarKind), func(data []byte) error {
		return decodeSidecar(data, v)
	})
}

// LoadResults returns every result stored in k's result object of the
// given kind (part of the object's name) that version version of the
// kind's consumer computed, keyed by canonical configuration key (never
// nil; empty when nothing usable is stored), and accounts the lookup of
// want against it: ResultHits and ResultMisses count the wanted keys
// found and not found, and a lookup that found all of them counts one
// Hit, since the caller no longer needs the Replay that would have
// counted it.
//
// An object stamped by another build (simulator, emulator or codec
// version) is not corrupt, only stale: it is ignored, and the caller's
// PutResults replaces it. A corrupt one is quarantined and reads as
// nothing stored. Only backend failures surface as errors.
func LoadResults[T any, P ResultCodec[T]](s *Store, k Key, kind, version string, want []string) (map[string]T, error) {
	var obj resultObject[T]
	ok, err := s.loadObject(k.objectName(kind), func(data []byte) (err error) {
		obj, err = decodeResults[T, P](data, kind)
		return err
	})
	if err != nil {
		return nil, err
	}
	if !ok || obj.Key != k || obj.CodecVersion != trace.CodecVersion || obj.Version != version {
		obj.Results = map[string]T{}
	}
	var found int64
	for _, key := range want {
		if _, ok := obj.Results[key]; ok {
			found++
		}
	}
	s.resultHits.Add(found)
	s.resultMisses.Add(int64(len(want)) - found)
	if found > 0 && found == int64(len(want)) {
		s.hits.Add(1)
	}
	return obj.Results, nil
}

// PutResults stores results as k's whole result object of a kind,
// computed by version version of its consumer. The object is one per
// cell and kind, so a caller adding results merges them into what
// LoadResults returned and writes the union; the caller serializes that
// read-modify-write per cell (bench.Runner.LockCell). A lost update
// between processes costs a recomputation, never a wrong answer.
func PutResults[T any, P ResultCodec[T]](s *Store, k Key, kind, version string, results map[string]T) error {
	err := s.putObject(k.objectName(kind), encodeResults[T, P](kind, resultObject[T]{
		Key: k, CodecVersion: trace.CodecVersion, Version: version, Results: results,
	}))
	if err == nil {
		s.resultPuts.Add(1)
	}
	return err
}
