// Package tracestore is the persistent, content-addressed trace store:
// the paper's "trace file" stage made durable. The RAP-WAM emulator is
// by far the most expensive stage of the Figure 1 pipeline, and a trace
// is a pure function of (benchmark, PEs, sequential, emulator version) —
// so each such cell is generated once, written in the compact chunked
// codec (internal/trace, docs/TRACE_FORMAT.md), and replayed by every
// later experiment. Replay is streaming: chunks are decoded straight
// into trace.BatchSink consumers, so a trace larger than RAM still
// feeds a full grid of cache simulators.
//
// # Layout
//
// A store is one blob.Backend namespace (a local directory in
// production — blob.Dir — or blob.Mem in tests). Each cell owns
// a trace, a run sidecar and one result object per kind of result:
//
//	<bench>-p<PEs>-<seq|par>-<emuver>-<key hash>.rwt2   compact trace
//	<same stem>.run.rwo1                                run sidecar
//	<same stem>.<kind>.rwo1                             result object (sim, des)
//
// The name's human-readable prefix is advisory; the 12-hex-digit
// SHA-256 prefix of the canonical key string is what addresses the
// cell, and every read re-verifies the decoded header against the key.
// The sidecar carries the run's engine statistics, so experiment
// drivers that need only core.Stats never re-run the emulator either.
// A result object carries what one kind of consumer computed from the
// trace — one result per canonical configuration key, stamped with the
// version of the code that computed them (LoadResults/PutResults) — so
// a consumer that finds its configurations there never decodes the
// trace. Sidecars and result objects share one checksummed binary
// format (object.go), each stored type bringing its own codec.
//
// # Self-healing
//
// Because a trace is a pure function of its key, a corrupt object is
// never fatal: any read-path verification failure — bad magic, CRC or
// checksum mismatch, truncation, header/key mismatch, undecodable
// object — moves the object to the backend's quarantine/ namespace,
// bumps the Quarantines counter, and surfaces a *CorruptError that also matches
// errors.Is(err, fs.ErrNotExist), so every caller already handling
// misses regenerates transparently. Corruption costs one regeneration,
// never correctness. Transient backend errors (blob.IsTransient)
// are NOT corruption and never quarantine — a flaky read must not
// evict a healthy object.
//
// # Concurrency
//
// Writes are atomic through the backend (temp file + rename on disk),
// so concurrent writers — including separate processes sharing a store
// directory — race benignly: one complete object wins. Readers only
// ever observe complete objects. In-process single-flight deduplication
// is the caller's job (internal/bench.EnsureStored keys generation on
// the cell).
package tracestore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/storage/blob"
	"repro/internal/trace"
)

// Key identifies one trace cell: the exact run that would regenerate
// the trace.
type Key struct {
	// Benchmark is the benchmark name (bench.ByName resolvable).
	Benchmark string
	// PEs is the processing-element count of the run.
	PEs int
	// Sequential selects the CGE-free WAM baseline compilation.
	Sequential bool
	// EmulatorVersion pins the engine build (core.EmulatorVersion);
	// traces from other versions are distinct cells.
	EmulatorVersion string
}

// String renders the key in the canonical, hashed form.
func (k Key) String() string {
	mode := "par"
	if k.Sequential {
		mode = "seq"
	}
	return fmt.Sprintf("%s@%dPE/%s/%s", k.Benchmark, k.PEs, mode, k.EmulatorVersion)
}

// ContentHash returns the canonical 12-hex-digit content address of a
// key: the SHA-256 prefix of the NUL-joined parts. It is the shared
// addressing scheme of every content-addressed store in the repo (the
// trace store here, the experiment result cache in internal/service) —
// NUL never occurs in a component, so distinct part lists can never
// collide by concatenation.
func ContentHash(parts ...string) string {
	return hashPrefix([]byte(strings.Join(parts, "\x00")))
}

// hashPrefix is ContentHash of already-joined bytes.
func hashPrefix(joined []byte) string {
	h := sha256.Sum256(joined)
	return hex.EncodeToString(h[:6])
}

// hash returns the 12-hex-digit content address of the key: ContentHash
// of its benchmark, PEs, sequential flag, emulator version and "v" +
// codec version, joined here without fmt (a warm run names hundreds of
// objects).
func (k Key) hash() string {
	b := make([]byte, 0, 64)
	b = append(b, k.Benchmark...)
	b = append(b, 0)
	b = strconv.AppendInt(b, int64(k.PEs), 10)
	b = append(b, 0)
	b = strconv.AppendBool(b, k.Sequential)
	b = append(b, 0)
	b = append(b, k.EmulatorVersion...)
	b = append(b, 0, 'v')
	b = strconv.AppendInt(b, trace.CodecVersion, 10)
	return hashPrefix(b)
}

// stem is the key's object name without extension:
// <benchmark>-p<PEs>-<par|seq>-<emulator version>-<hash>.
func (k Key) stem() string {
	mode := "-par-"
	if k.Sequential {
		mode = "-seq-"
	}
	b := make([]byte, 0, 80)
	b = appendSanitized(b, k.Benchmark)
	b = append(b, "-p"...)
	b = strconv.AppendInt(b, int64(k.PEs), 10)
	b = append(b, mode...)
	b = appendSanitized(b, k.EmulatorVersion)
	b = append(b, '-')
	b = append(b, k.hash()...)
	return string(b)
}

// appendSanitized appends s with every rune outside [A-Za-z0-9_-]
// replaced by '_', keeping object names portable.
func appendSanitized(b []byte, s string) []byte {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b = append(b, byte(r))
		default:
			b = append(b, '_')
		}
	}
	return b
}

// TraceExt is the extension of stored compact traces.
const TraceExt = ".rwt2"

// Stats are the store's counters since process start (or the last
// ResetStats). Misses count Has/Replay/Load lookups that found no
// object; Hits count the ones that did, plus one per LoadResults that
// found every wanted result (it stands in for the Replay it saved);
// Puts counts completed trace writes; Quarantines counts corrupt
// objects moved aside by the self-healing read paths and Scrub.
// ResultHits and ResultMisses count the configurations LoadResults was
// asked for and did / did not find; ResultPuts counts result objects
// written.
type Stats struct {
	Hits, Misses, Puts int64
	Quarantines        int64

	ResultHits, ResultMisses, ResultPuts int64
}

// Store is a trace store over one storage backend.
type Store struct {
	b   blob.Backend
	dir string // filesystem root when directory-backed, "" otherwise

	hits        atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	quarantines atomic.Int64

	resultHits   atomic.Int64
	resultMisses atomic.Int64
	resultPuts   atomic.Int64
}

// StaleTempAge is the default age past which Open sweeps temp-file
// droppings (and aged quarantined objects). Writers hold their temp
// file only for the duration of one atomic temp+rename write
// (seconds); anything hours old is a stranded dropping from a killed
// writer, not a write in progress.
const StaleTempAge = time.Hour

// Open creates (if needed) and opens a store directory with the
// default sweep age. See OpenDir.
func Open(dir string) (*Store, error) { return OpenDir(dir, StaleTempAge) }

// OpenDir creates (if needed) and opens a directory-backed store,
// sweeping stale *.tmp files a killed writer left behind and aged
// quarantined objects (the atomic temp+rename scheme cleans up after
// errors, but not after SIGKILL or a power cut mid-write). Temps
// younger than tempAge are left alone — they may belong to a live
// writer in another process; tempAge <= 0 disables the opening sweep.
func OpenDir(dir string, tempAge time.Duration) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("tracestore: empty directory")
	}
	d, err := blob.NewDir(dir, tempAge)
	if err != nil {
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	return &Store{b: d, dir: dir}, nil
}

// NewOn opens a store over an arbitrary backend (in-memory stores for
// tests, fault-injection wrappers for chaos runs, networked backends
// later).
func NewOn(b blob.Backend) *Store {
	s := &Store{b: b}
	if d, ok := b.(*blob.Dir); ok {
		s.dir = d.Root()
	}
	return s
}

// Backend returns the store's storage backend.
func (s *Store) Backend() blob.Backend { return s.b }

// Dir returns the store's root directory ("" when the backend is not a
// local directory).
func (s *Store) Dir() string { return s.dir }

// name returns the trace object name for a key.
func (k Key) name() string { return k.stem() + TraceExt }

// Path returns the file a key's trace is (or would be) stored at for
// directory-backed stores; for other backends it returns the object
// name.
func (s *Store) Path(k Key) string {
	if s.dir == "" {
		return k.name()
	}
	return filepath.Join(s.dir, k.name())
}

// Has reports whether the store holds a trace for k. It counts toward
// the hit/miss statistics. Backend errors read as absent: the caller's
// next step (regenerate) is also the right response to a broken probe.
func (s *Store) Has(k Key) bool {
	_, err := s.b.Stat(k.name())
	if err == nil {
		s.hits.Add(1)
		return true
	}
	s.misses.Add(1)
	return false
}

// Stats returns the hit/miss/put/quarantine counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Puts:        s.puts.Load(),
		Quarantines: s.quarantines.Load(),

		ResultHits:   s.resultHits.Load(),
		ResultMisses: s.resultMisses.Load(),
		ResultPuts:   s.resultPuts.Load(),
	}
}

// ResetStats zeroes the counters.
func (s *Store) ResetStats() {
	s.hits.Store(0)
	s.misses.Store(0)
	s.puts.Store(0)
	s.quarantines.Store(0)
	s.resultHits.Store(0)
	s.resultMisses.Store(0)
	s.resultPuts.Store(0)
}

// Sweep removes stale temp droppings and aged quarantined objects.
func (s *Store) Sweep(olderThan time.Duration) int { return s.b.Sweep(olderThan) }

// CorruptError reports a stored object that failed read-path
// verification and was quarantined. It matches
// errors.Is(err, fs.ErrNotExist): after quarantine the cell IS absent,
// so every caller that handles misses by regenerating heals corruption
// with the same code path.
type CorruptError struct {
	// Key is the cell the object was looked up under.
	Key Key
	// Name is the object name, now under quarantine/ (unless the
	// quarantine move itself failed; the object then stays in place
	// and the next read retries the move).
	Name string
	// Err is the verification failure.
	Err error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("tracestore: %s corrupt (quarantined): %v", e.Name, e.Err)
}

// Unwrap exposes both the verification failure and fs.ErrNotExist (a
// quarantined cell is a miss).
func (e *CorruptError) Unwrap() []error { return []error{e.Err, fs.ErrNotExist} }

// IsCorrupt reports whether err is a quarantined-corruption error from
// this store (or the result cache, which uses the same type via
// AsCorrupt-style matching).
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// quarantine moves a failed object into the backend's quarantine/
// namespace, counting it. If the move fails (the backend may itself be
// faulty) it falls back to deleting the object — a corrupt object that
// kept its name would mask the regenerated cell forever, which is the
// one outcome self-healing cannot allow. Both failing is fine: the
// object stays, the next read fails verification again and retries.
func (s *Store) quarantine(name string) {
	if err := s.b.Rename(name, blob.QuarantinePrefix+name); err != nil {
		if s.b.Delete(name) != nil {
			return
		}
	}
	s.quarantines.Add(1)
}

// readFail classifies a read-path failure on the object for k:
// transient backend errors pass through (retry, don't quarantine);
// anything else is corruption — quarantine and report a *CorruptError
// that reads as a miss.
func (s *Store) readFail(k Key, name string, err error) error {
	if blob.IsTransient(err) || blob.AsBackendError(err) {
		return fmt.Errorf("tracestore: %s: %w", name, err)
	}
	s.quarantine(name)
	return &CorruptError{Key: k, Name: name, Err: err}
}

// Replay streams the stored trace for k into sink — chunk-at-a-time
// decode feeding BatchSink consumers directly, never materializing the
// trace — and returns its metadata (with footer-verified counts).
// A missing cell returns an error satisfying errors.Is(err,
// fs.ErrNotExist); so does a corrupt (now quarantined) one. NOTE: a
// mid-stream failure may already have fed sink a partial prefix —
// retrying callers must recreate their consumer state.
func (s *Store) Replay(k Key, sink trace.Sink) (trace.Meta, error) {
	name := k.name()
	rc, err := s.b.Get(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return trace.Meta{}, err
		}
		return trace.Meta{}, fmt.Errorf("tracestore: %s: %w", name, err)
	}
	defer rc.Close()
	s.hits.Add(1)
	cr, err := trace.NewChunkReader(rc)
	if err != nil {
		return trace.Meta{}, s.readFail(k, name, err)
	}
	if err := verifyMeta(k, cr.Meta()); err != nil {
		return cr.Meta(), s.readFail(k, name, err)
	}
	if _, err := cr.Replay(sink); err != nil {
		return cr.Meta(), s.readFail(k, name, err)
	}
	return cr.Meta(), nil
}

// Meta decodes only the header of the stored trace for k, verifying it
// against the key, and returns it with the object size — the cheap
// metadata lookup behind the service's /v1/traces endpoint. A missing
// cell counts as a miss; a corrupt header quarantines the object.
func (s *Store) Meta(k Key) (trace.Meta, int64, error) {
	name := k.name()
	info, err := s.b.Stat(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
		}
		return trace.Meta{}, 0, err
	}
	rc, err := s.b.Get(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return trace.Meta{}, 0, err
		}
		return trace.Meta{}, 0, fmt.Errorf("tracestore: %s: %w", name, err)
	}
	defer rc.Close()
	cr, err := trace.NewChunkReader(rc)
	if err != nil {
		return trace.Meta{}, info.Size, s.readFail(k, name, err)
	}
	if err := verifyMeta(k, cr.Meta()); err != nil {
		return cr.Meta(), info.Size, s.readFail(k, name, err)
	}
	s.hits.Add(1)
	return cr.Meta(), info.Size, nil
}

// Load fully decodes the stored trace for k into a Buffer (for callers
// that want the in-memory form; prefer Replay for streaming).
func (s *Store) Load(k Key) (*trace.Buffer, trace.Meta, error) {
	name := k.name()
	rc, err := s.b.Get(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return nil, trace.Meta{}, err
		}
		return nil, trace.Meta{}, fmt.Errorf("tracestore: %s: %w", name, err)
	}
	defer rc.Close()
	s.hits.Add(1)
	buf, meta, err := trace.ReadCompact(rc)
	if err != nil {
		return nil, meta, s.readFail(k, name, err)
	}
	if err := verifyMeta(k, meta); err != nil {
		return nil, meta, s.readFail(k, name, err)
	}
	return buf, meta, nil
}

// verifyMeta checks a decoded header against the key it was looked up
// under, so a hand-edited or mis-copied store object cannot silently
// stand in for a different cell.
func verifyMeta(k Key, m trace.Meta) error {
	if m.Benchmark != k.Benchmark || m.PEs != k.PEs ||
		m.Sequential != k.Sequential || m.EmulatorVersion != k.EmulatorVersion {
		return fmt.Errorf("tracestore: file for %v carries header %s@%dPE (seq=%t) %s",
			k, m.Benchmark, m.PEs, m.Sequential, m.EmulatorVersion)
	}
	return nil
}

// Put generates and stores the trace for k: gen receives a Sink (the
// compact encoder over the backend's atomic writer) and must emit the
// full reference stream. Any error (from gen or the encoder) leaves
// the store unchanged.
func (s *Store) Put(k Key, gen func(trace.Sink) error) error {
	meta := trace.Meta{
		Benchmark:       k.Benchmark,
		PEs:             k.PEs,
		Sequential:      k.Sequential,
		EmulatorVersion: k.EmulatorVersion,
	}
	err := s.b.Put(k.name(), func(w io.Writer) error {
		cw, err := trace.NewChunkWriter(w, meta)
		if err != nil {
			return err
		}
		if err := gen(cw); err != nil {
			return err
		}
		return cw.Close()
	})
	if err != nil {
		return err
	}
	s.puts.Add(1)
	return nil
}

// Entry describes one stored trace found by List.
type Entry struct {
	// Path is the trace file path (object name on non-directory
	// backends).
	Path string
	// Meta is the decoded header (counts are header-declared; run
	// Verify for footer-checked totals).
	Meta trace.Meta
	// Bytes is the object size.
	Bytes int64
}

// List scans the store and returns every readable trace, sorted by
// name. Objects whose header does not parse are skipped (Verify and
// Scrub report them).
func (s *Store) List() ([]Entry, error) {
	names, err := s.traceNames()
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, name := range names {
		meta, size, err := s.readObjectHeader(name)
		if err != nil {
			continue
		}
		path := name
		if s.dir != "" {
			path = filepath.Join(s.dir, name)
		}
		out = append(out, Entry{Path: path, Meta: meta, Bytes: size})
	}
	return out, nil
}

// Verify is the read-only scan behind `tracegen verify`: it checks
// every object exactly as Scrub does — traces fully decoded (header,
// chunk CRCs, footer totals, header-vs-name key check), run sidecars
// and result objects against their envelope (magic, format version,
// payload checksum, kind) — and reports one error per bad object, but
// never quarantines. A clean store returns a report with no Errors.
func (s *Store) Verify() ScrubReport { return s.scan(false) }

// ScrubReport summarizes one Verify or Scrub pass.
type ScrubReport struct {
	// Checked counts objects examined; Traces of them were traces, the
	// rest run sidecars and result objects, counted per kind in Objects
	// (SidecarKind for the sidecars).
	Checked, Traces int
	Objects         map[string]int
	// Legacy counts the objects of an earlier object format the scan
	// ignored (ObjectExt): never read, never quarantined.
	Legacy int
	// Quarantined lists object names moved to quarantine/ (always empty
	// for Verify).
	Quarantined []string
	// Recoverable lists the keys of corrupt traces whose headers were
	// still readable — the cells a repair pass can regenerate.
	Recoverable []Key
	// Errors holds one diagnostic per corrupt or unreadable object.
	Errors []error
}

// Scrub is the repairing scan behind `tracegen verify -repair` and the
// daemon's background scrubber: Verify, plus quarantining whatever
// fails verification (a flaky read is reported, never quarantined).
func (s *Store) Scrub() ScrubReport { return s.scan(true) }

// scan is Verify (repair false) and Scrub (repair true).
func (s *Store) scan(repair bool) ScrubReport {
	rep := ScrubReport{Objects: map[string]int{}}
	bad := func(name string, err error) {
		rep.Errors = append(rep.Errors, fmt.Errorf("%s: %w", name, err))
		if repair {
			s.quarantine(name)
			rep.Quarantined = append(rep.Quarantined, name)
		}
	}
	names, err := s.traceNames()
	if err != nil {
		rep.Errors = append(rep.Errors, err)
		return rep
	}
	for _, name := range names {
		rep.Checked++
		rep.Traces++
		verr := s.verifyObject(name)
		var k Key
		haveKey := false
		if meta, _, err := s.readObjectHeader(name); err == nil {
			k = Key{Benchmark: meta.Benchmark, PEs: meta.PEs,
				Sequential: meta.Sequential, EmulatorVersion: meta.EmulatorVersion}
			haveKey = true
			if verr == nil && k.name() != name {
				verr = fmt.Errorf("object name %s does not match header key %v (want %s)", name, k, k.name())
			}
		}
		if verr == nil {
			continue
		}
		if blob.IsTransient(verr) || blob.AsBackendError(verr) {
			// A flaky read is not corruption; report it and move on.
			rep.Errors = append(rep.Errors, fmt.Errorf("%s: %w", name, verr))
			continue
		}
		bad(name, verr)
		if haveKey && k.name() == name {
			rep.Recoverable = append(rep.Recoverable, k)
		}
	}
	all, err := s.b.List("")
	if err != nil {
		rep.Errors = append(rep.Errors, fmt.Errorf("tracestore: %w", err))
		return rep
	}
	for _, name := range all {
		kind, ok := objectKind(name)
		if !ok {
			if legacyObject(name) {
				rep.Legacy++
			}
			continue
		}
		rep.Checked++
		rep.Objects[kind]++
		rc, err := s.b.Get(name)
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Errorf("%s: %w", name, err))
			continue
		}
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Errorf("%s: %w", name, err))
			continue
		}
		if _, err := openObject(data, kind); err != nil {
			bad(name, fmt.Errorf("invalid object: %w", err))
		}
	}
	return rep
}

// traceNames returns the sorted trace object names in the store.
func (s *Store) traceNames() ([]string, error) {
	names, err := s.b.List("")
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil // a never-written namespace is an empty store
		}
		return nil, fmt.Errorf("tracestore: %w", err)
	}
	var out []string
	for _, name := range names {
		if strings.HasSuffix(name, TraceExt) {
			out = append(out, name)
		}
	}
	return out, nil
}

// readObjectHeader decodes only the compact header of one object.
// Misses pass through raw so errors.Is(err, fs.ErrNotExist) keeps
// working; backend failures gain store context.
func (s *Store) readObjectHeader(name string) (trace.Meta, int64, error) {
	info, err := s.b.Stat(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return trace.Meta{}, 0, err
		}
		return trace.Meta{}, 0, fmt.Errorf("tracestore: header %s: %w", name, err)
	}
	rc, err := s.b.Get(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return trace.Meta{}, info.Size, err
		}
		return trace.Meta{}, info.Size, fmt.Errorf("tracestore: header %s: %w", name, err)
	}
	defer rc.Close()
	cr, err := trace.NewChunkReader(rc)
	if err != nil {
		return trace.Meta{}, info.Size, err
	}
	return cr.Meta(), info.Size, nil
}

// verifyObject fully decodes one stored trace. An object that
// vanished between listing and reading (a concurrent sweep, delete or
// quarantine) is a transient condition, not corruption: without the
// classification, Scrub's transient gate would miss the raw
// fs.ErrNotExist and try to quarantine an object that no longer
// exists.
func (s *Store) verifyObject(name string) error {
	rc, err := s.b.Get(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return blob.Transient(err)
		}
		return err
	}
	defer rc.Close()
	cr, err := trace.NewChunkReader(rc)
	if err != nil {
		return err
	}
	_, err = cr.Replay(trace.Discard)
	return err
}

// ReadFileMeta decodes the header of a compact trace file outside any
// store (for CLI inspection of bare .rwt2 files).
func ReadFileMeta(path string) (trace.Meta, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Meta{}, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return trace.Meta{}, 0, err
	}
	cr, err := trace.NewChunkReader(f)
	if err != nil {
		return trace.Meta{}, info.Size(), err
	}
	return cr.Meta(), info.Size(), nil
}

// ReadFileFull fully decodes a compact trace file and returns its
// metadata with footer-verified totals (Refs, PerPE).
func ReadFileFull(path string) (trace.Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return trace.Meta{}, err
	}
	defer f.Close()
	cr, err := trace.NewChunkReader(f)
	if err != nil {
		return trace.Meta{}, err
	}
	if _, err := cr.Replay(trace.Discard); err != nil {
		return cr.Meta(), err
	}
	return cr.Meta(), nil
}

// VerifyFile fully decodes a compact trace file outside any store.
func VerifyFile(path string) error {
	_, err := ReadFileFull(path)
	return err
}
