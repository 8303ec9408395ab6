// Package service is the experiment results service: a long-running
// HTTP/JSON daemon (cmd/rapwamd) that exposes every table and figure
// of the paper over the experiments grid runner and the persistent
// trace store, memoizing each computed cell in a content-addressed
// result cache.
//
// The serving pipeline per request is
//
//	request → admission (load shedding) → result cache (memory, then
//	        backend) → single-flight → experiments grid → trace store
//	        → emulator
//
// so any experiment cell is computed at most once per (parameters,
// emulator version, codec version): N concurrent identical requests
// trigger exactly one grid run, and every later request — including
// requests to a restarted daemon over the same cache directory — is a
// backend or memory hit with a byte-identical body and zero emulator
// runs. Cancellation flows the other way: the server's base context
// and each request's context reach the grid (and the engine's
// instruction loop) end to end, so shutdown and client disconnects
// abort in-flight computations instead of stranding them.
//
// Failure is a first-class input (docs/API.md "Failure modes"):
// corrupt cache entries are quarantined and recomputed transparently,
// storage outages degrade the service to compute-without-caching
// (X-Degraded response header) instead of failing requests, overload
// sheds with 429 + Retry-After, and slow computations can be bounded
// with a per-request timeout (504).
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	iofs "io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/storage/blob"
	"repro/internal/trace"
	"repro/internal/tracestore"
)

// CacheVersion is the result-envelope format version; it participates
// in every cache key, so an envelope change invalidates old entries
// instead of serving them in the stale shape. Version 2 added the
// result_sha256 payload checksum.
const CacheVersion = 2

// CacheKey identifies one cached experiment result: the experiment
// name plus its canonical parameter encoding. The emulator version,
// trace codec version and CacheVersion are folded into the content
// address, so results computed by a different engine build are
// distinct entries, exactly like trace-store cells.
type CacheKey struct {
	// Experiment is the registry name ("fig4", "table3", ...).
	Experiment string
	// Params is the canonical parameter encoding ("pes=1,2,4,8&sizes=64,...").
	Params string
}

// hash returns the key's content address (shared scheme with the
// trace store: tracestore.ContentHash).
func (k CacheKey) hash() string {
	return cacheHash(k.Experiment, k.Params, core.EmulatorVersion, trace.CodecVersion, CacheVersion)
}

// cacheHash is the content address for an explicit version triple —
// the running build's for live keys, an envelope's own recorded
// versions when Scrub re-derives the name an entry should live under
// (entries from an older build are stale-but-valid, not corrupt).
func cacheHash(experiment, params, emuVersion string, codecVersion, cacheVersion int) string {
	return tracestore.ContentHash(experiment, params, emuVersion,
		fmt.Sprintf("codec%d", codecVersion), fmt.Sprintf("rc%d", cacheVersion))
}

// name returns the key's object name in the backend.
func (k CacheKey) name() string {
	return sanitizeName(k.Experiment) + "-" + k.hash() + ".json"
}

// CacheStats are the result cache's counters since open (or the last
// ResetStats).
type CacheStats struct {
	// MemHits / DiskHits split hits by which layer served them.
	MemHits, DiskHits int64
	// Misses counts Get calls that found no valid entry.
	Misses int64
	// Puts counts completed writes.
	Puts int64
	// Quarantines counts corrupt entries moved to quarantine/ by the
	// read path and Scrub.
	Quarantines int64
}

// maxMemEntries bounds the in-memory layer. Result bodies are small
// (KBs) and the working set of distinct (experiment, params) cells is
// tiny, so a simple count cap suffices; on overflow an arbitrary
// entry is evicted (the backend layer still holds it).
const maxMemEntries = 128

// memEntry is one key's slot in the memory layer: the verified envelope
// (the json response) and its csv and text renderings, each rendered on
// the key's first request in that format. The renderings live and die
// with the envelope — eviction and quarantine drop the whole entry — so
// a rendering can never outlive the bytes it was derived from.
type memEntry struct {
	body      []byte
	csv, text atomic.Pointer[[]byte]
}

// render returns the entry's response bytes in format ("json", "csv" or
// "text"). A csv/text rendering is made from the decoded envelope on
// first use — the same bytes whichever layer supplied the envelope —
// and stored; concurrent first renders race benignly (the bytes are
// deterministic, the first stored wins). Errors are never stored.
func (e *memEntry) render(exp *experiments.Experiment, format string) ([]byte, error) {
	slot := &e.csv
	switch format {
	case "json":
		return e.body, nil
	case "text":
		slot = &e.text
	}
	if p := slot.Load(); p != nil {
		return *p, nil
	}
	v, err := decodeResult(exp, e.body)
	if err != nil {
		return nil, fmt.Errorf("decoding cached result: %w", err)
	}
	var buf bytes.Buffer
	if format == "csv" {
		if err := experiments.WriteCSV(&buf, v); err != nil {
			return nil, fmt.Errorf("rendering csv: %w", err)
		}
	} else {
		buf.WriteString(v.String())
	}
	out := buf.Bytes()
	slot.CompareAndSwap(nil, &out)
	return out, nil
}

// ResultCache is a content-addressed store of rendered experiment
// results over one storage backend (a local directory in production),
// with a small in-memory layer in front that also holds each entry's
// csv and text renderings (memEntry). Writes are atomic through the
// backend, so concurrent writers — including separate daemons sharing
// the directory — race benignly and readers only observe complete
// entries.
//
// Reads self-heal: an entry that exists but fails envelope
// verification (corrupt JSON, wrong cell, wrong versions for its
// address) is quarantined and the lookup reports a miss — the caller
// recomputes and overwrites, and because envelopes are canonical JSON
// the rewritten entry is byte-identical to what the corrupt one should
// have been. Transient backend read errors also read as misses (the
// recompute path is the retry), but never quarantine.
type ResultCache struct {
	b   blob.Backend
	dir string // filesystem root when directory-backed, "" otherwise

	memHits     atomic.Int64
	diskHits    atomic.Int64
	misses      atomic.Int64
	puts        atomic.Int64
	quarantines atomic.Int64

	mu  sync.RWMutex
	mem map[string]*memEntry
}

// OpenResultCache creates (if needed) and opens a result cache
// directory with the default sweep age. See OpenResultCacheDir.
func OpenResultCache(dir string) (*ResultCache, error) {
	return OpenResultCacheDir(dir, tracestore.StaleTempAge)
}

// OpenResultCacheDir creates (if needed) and opens a result cache
// directory, sweeping stale *.tmp droppings left by a killed writer
// and aged quarantined entries (same hygiene as tracestore.OpenDir).
func OpenResultCacheDir(dir string, tempAge time.Duration) (*ResultCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("service: empty result cache directory")
	}
	d, err := blob.NewDir(dir, tempAge)
	if err != nil {
		return nil, fmt.Errorf("service: result cache: %w", err)
	}
	return &ResultCache{b: d, dir: dir, mem: make(map[string]*memEntry)}, nil
}

// NewResultCacheOn opens a result cache over an arbitrary backend
// (in-memory caches for tests, fault-injection wrappers for chaos
// runs).
func NewResultCacheOn(b blob.Backend) *ResultCache {
	c := &ResultCache{b: b, mem: make(map[string]*memEntry)}
	if d, ok := b.(*blob.Dir); ok {
		c.dir = d.Root()
	}
	return c
}

// Backend returns the cache's storage backend.
func (c *ResultCache) Backend() blob.Backend { return c.b }

// Dir returns the cache's root directory ("" when the backend is not a
// local directory).
func (c *ResultCache) Dir() string { return c.dir }

// Path returns the file a key's result is (or would be) stored at for
// directory-backed caches; for other backends it returns the object
// name.
func (c *ResultCache) Path(k CacheKey) string {
	if c.dir == "" {
		return k.name()
	}
	return filepath.Join(c.dir, k.name())
}

// sanitizeName keeps object names portable (experiment names are
// already clean identifiers; this is belt and braces, mirroring the
// trace store).
func sanitizeName(s string) string {
	out := []byte(s)
	for i, r := range out {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// Stats returns the hit/miss/put/quarantine counters.
func (c *ResultCache) Stats() CacheStats {
	return CacheStats{
		MemHits:     c.memHits.Load(),
		DiskHits:    c.diskHits.Load(),
		Misses:      c.misses.Load(),
		Puts:        c.puts.Load(),
		Quarantines: c.quarantines.Load(),
	}
}

// ResetStats zeroes the counters.
func (c *ResultCache) ResetStats() {
	c.memHits.Store(0)
	c.diskHits.Store(0)
	c.misses.Store(0)
	c.puts.Store(0)
	c.quarantines.Store(0)
}

// Sweep removes stale temp droppings and aged quarantined entries.
func (c *ResultCache) Sweep(olderThan time.Duration) int { return c.b.Sweep(olderThan) }

// Envelope is the stored (and served) result shape: the JSON response
// body is exactly these bytes, so a cached result is byte-identical
// across requests and daemon restarts.
type Envelope struct {
	// Experiment is the registry name the result was computed for.
	Experiment string `json:"experiment"`
	// Params are the canonical parameters of the computation.
	Params map[string]string `json:"params"`
	// EmulatorVersion / CodecVersion / CacheVersion pin the producing
	// stack; Get re-verifies them against the running build.
	EmulatorVersion string `json:"emulator_version"`
	CodecVersion    int    `json:"codec_version"`
	CacheVersion    int    `json:"cache_version"`
	// ResultSHA is the SHA-256 of the raw Result bytes. The key fields
	// above only prove the entry belongs to this cell; the checksum is
	// what catches silent payload corruption (a flipped bit inside an
	// otherwise well-formed Result would pass every other check).
	ResultSHA string `json:"result_sha256"`
	// Result is the experiment's structured result.
	Result json.RawMessage `json:"result"`
}

// resultSHA is the Envelope.ResultSHA checksum of a raw result payload.
func resultSHA(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// canonicalEnvelopeParams renders an envelope's parameter map back to
// the canonical sorted key string (every registry entry builds its
// params sorted, so the map round-trips).
func canonicalEnvelopeParams(params map[string]string) string {
	names := make([]string, 0, len(params))
	for name := range params {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, name := range names {
		parts[i] = name + "=" + params[name]
	}
	return strings.Join(parts, "&")
}

// verifyEnvelope checks a decoded envelope against the key it was
// looked up under — experiment, canonical parameters and all three
// versions — so a hand-copied or corrupt cache entry cannot silently
// stand in for a different cell (mirrors the trace store's
// header-vs-key verification).
func verifyEnvelope(k CacheKey, body []byte) bool {
	var env Envelope
	if json.Unmarshal(body, &env) != nil {
		return false
	}
	return env.Experiment == k.Experiment &&
		canonicalEnvelopeParams(env.Params) == k.Params &&
		env.EmulatorVersion == core.EmulatorVersion &&
		env.CodecVersion == trace.CodecVersion &&
		env.CacheVersion == CacheVersion &&
		env.ResultSHA == resultSHA(env.Result)
}

// Get returns the cached body for k and which layer served it
// ("memory" or "disk"), recording the lookup in the hit/miss
// counters. Invalid entries are quarantined and count as misses — the
// caller recomputes and overwrites.
func (c *ResultCache) Get(k CacheKey) (body []byte, source string, ok bool) {
	e, source, ok := c.lookup(k, k.hash(), true)
	if !ok {
		return nil, "", false
	}
	return e.body, source, true
}

// get is Get for a key whose content address h the caller already
// holds, returning the memory-layer entry (every format's bytes).
func (c *ResultCache) get(k CacheKey, h string) (e *memEntry, source string, ok bool) {
	return c.lookup(k, h, true)
}

// peek is get without touching the counters — for double-checked
// lookups whose request already recorded its miss.
func (c *ResultCache) peek(k CacheKey, h string) (e *memEntry, source string, ok bool) {
	return c.lookup(k, h, false)
}

func (c *ResultCache) lookup(k CacheKey, h string, record bool) (e *memEntry, source string, ok bool) {
	c.mu.RLock()
	e, ok = c.mem[h]
	c.mu.RUnlock()
	if ok {
		if record {
			c.memHits.Add(1)
		}
		return e, "memory", true
	}
	miss := func() (*memEntry, string, bool) {
		if record {
			c.misses.Add(1)
		}
		return nil, "", false
	}
	rc, err := c.b.Get(k.name())
	if err != nil {
		// Absent, or the backend hiccuped: either way the right next
		// step is the same — recompute. Computation is deterministic
		// and the rewrite is byte-identical, so a transient read error
		// costs one recompute, never a wrong answer.
		return miss()
	}
	// A tiered backend marks peer-fetched reads; the entry still goes
	// through full envelope verification below — a peer's word is
	// never trusted over the checks.
	layer := "disk"
	if bs, ok := rc.(interface{ BlobSource() string }); ok {
		layer = bs.BlobSource()
	}
	body, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		if !blob.IsTransient(err) && !blob.AsBackendError(err) {
			c.quarantine(k.name(), h)
		}
		return miss()
	}
	if !verifyEnvelope(k, body) {
		// The entry exists and read cleanly but is not the result it
		// claims to be: corruption (or a forgery). Quarantine it so
		// the recompute's overwrite is never masked.
		c.quarantine(k.name(), h)
		return miss()
	}
	if record {
		c.diskHits.Add(1)
	}
	return c.remember(h, body), layer, true
}

// quarantine moves a bad entry aside (falling back to deletion like
// the trace store) and drops it — every rendering with it — from the
// memory layer.
func (c *ResultCache) quarantine(name, hash string) {
	c.mu.Lock()
	delete(c.mem, hash)
	c.mu.Unlock()
	if err := c.b.Rename(name, blob.QuarantinePrefix+name); err != nil {
		if c.b.Delete(name) != nil {
			return
		}
	}
	c.quarantines.Add(1)
}

// Put stores body as the result for k: atomically through the backend,
// then the in-memory layer. Any error leaves the cache unchanged.
func (c *ResultCache) Put(k CacheKey, body []byte) error {
	_, err := c.put(k, k.hash(), body)
	return err
}

// put is Put for a key whose content address h the caller already
// holds, returning the new memory-layer entry.
func (c *ResultCache) put(k CacheKey, h string, body []byte) (*memEntry, error) {
	err := c.b.Put(k.name(), func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("service: result cache: %w", err)
	}
	c.puts.Add(1)
	return c.remember(h, body), nil
}

// remember inserts a fresh entry for a verified envelope into the
// bounded in-memory layer.
func (c *ResultCache) remember(hash string, body []byte) *memEntry {
	e := &memEntry{body: body}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.mem) >= maxMemEntries {
		for k := range c.mem {
			delete(c.mem, k)
			break
		}
	}
	c.mem[hash] = e
	return e
}

// Len returns the number of complete entries in the backend.
func (c *ResultCache) Len() (int, error) {
	names, err := c.b.List("")
	if err != nil {
		if errors.Is(err, iofs.ErrNotExist) {
			return 0, nil // a never-written namespace is an empty cache
		}
		return 0, fmt.Errorf("service: result cache: %w", err)
	}
	n := 0
	for _, name := range names {
		if strings.HasSuffix(name, ".json") {
			n++
		}
	}
	return n, nil
}

// CacheScrubReport summarizes one result-cache Scrub pass.
type CacheScrubReport struct {
	// Checked counts entries examined.
	Checked int
	// Quarantined lists entry names moved to quarantine/.
	Quarantined []string
	// Errors holds one diagnostic per quarantined or unreadable entry.
	Errors []error
}

// Scrub validates every entry in the backend: the JSON must parse as
// an envelope and the entry must live at the name its own recorded
// (experiment, params, versions) hash to — a name/content mismatch
// means the bytes rotted or the file was mis-copied. Entries recorded
// under a different build's versions are left alone as long as they
// are internally consistent: they are stale, not corrupt, and a future
// build rollback would serve them again. Bad entries are quarantined.
func (c *ResultCache) Scrub() CacheScrubReport {
	var rep CacheScrubReport
	names, err := c.b.List("")
	if err != nil {
		rep.Errors = append(rep.Errors, fmt.Errorf("service: result cache: %w", err))
		return rep
	}
	for _, name := range names {
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		rep.Checked++
		rc, err := c.b.Get(name)
		if err != nil {
			rep.Errors = append(rep.Errors, fmt.Errorf("%s: %w", name, err))
			continue
		}
		body, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			if blob.IsTransient(err) || blob.AsBackendError(err) {
				rep.Errors = append(rep.Errors, fmt.Errorf("%s: %w", name, err))
				continue
			}
		}
		var env Envelope
		reason := ""
		if err := json.Unmarshal(body, &env); err != nil {
			reason = fmt.Sprintf("invalid envelope JSON: %v", err)
		} else if env.ResultSHA != resultSHA(env.Result) {
			reason = "result payload checksum mismatch (silent corruption)"
		} else {
			want := sanitizeName(env.Experiment) + "-" +
				cacheHash(env.Experiment, canonicalEnvelopeParams(env.Params),
					env.EmulatorVersion, env.CodecVersion, env.CacheVersion) + ".json"
			if want != name {
				reason = fmt.Sprintf("entry at %s hashes to %s (content does not match its address)", name, want)
			}
		}
		if reason == "" {
			continue
		}
		rep.Quarantined = append(rep.Quarantined, name)
		rep.Errors = append(rep.Errors, fmt.Errorf("%s: %s", name, reason))
		c.quarantine(name, hashFromName(name))
	}
	return rep
}

// hashFromName extracts the 12-hex content address from an entry name
// ("<experiment>-<hash>.json") for memory-layer eviction; unknown
// shapes return "" (harmless: no mem entry to evict).
func hashFromName(name string) string {
	stem := strings.TrimSuffix(name, ".json")
	i := strings.LastIndex(stem, "-")
	if i < 0 {
		return ""
	}
	return stem[i+1:]
}
