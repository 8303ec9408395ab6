package blob

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the sentinel at the bottom of every operational error
// the Fault backend injects; tests match it with errors.Is to tell
// injected failures from real ones.
var ErrInjected = errors.New("injected fault")

// Faults configures the fault-injection backend. All probabilities are
// in [0, 1] and are drawn independently per operation from one seeded
// PRNG, so a given (seed, operation sequence) always fails the same
// way — chaos tests are reproducible bug reports, not flakes.
type Faults struct {
	// Seed seeds the PRNG (same seed, same operation order → same faults).
	Seed int64
	// ReadErr is the probability a Get fails — half up front (open
	// error), half mid-stream after a random prefix of the object has
	// been read (the failure mode CRC-checked decoding must survive).
	ReadErr float64
	// WriteErr is the probability a Put fails cleanly before
	// committing anything.
	WriteErr float64
	// OpErr is the probability Stat/List/Delete/Rename fail.
	OpErr float64
	// TornWrite is the probability a Put commits only a prefix of the
	// written bytes — the torn-write crash model. The commit succeeds
	// (Put returns nil), so only content verification on the read path
	// can catch it.
	TornWrite float64
	// BitFlip is the probability, per Write call inside a Put, that
	// one random bit of that write is flipped before it reaches the
	// inner backend — silent media corruption. The commit succeeds.
	BitFlip float64
	// ReadFlip is the probability, per Get, that one random bit of the
	// returned stream is flipped — corruption in flight (a hostile
	// wire or a bad NIC), as opposed to BitFlip's corruption at rest.
	// The read "succeeds"; only content verification can catch it.
	// Wrapping a Peer backend with this is how the cluster tests model
	// a peer serving damaged blobs.
	ReadFlip float64
	// MaxLatency, when positive, sleeps a uniform [0, MaxLatency)
	// before every operation.
	MaxLatency time.Duration
}

// Fault wraps an inner backend and injects deterministic faults per
// the configured probabilities. Injected operational errors (failed
// reads/writes/ops) are wrapped as TransientError — they model flaky
// I/O, not corrupt content, and must not get healthy objects
// quarantined. Torn writes and bit flips are silent: the write
// "succeeds" and only read-path verification catches the damage.
type Fault struct {
	inner Backend
	f     Faults

	mu  sync.Mutex
	rng *rand.Rand

	injectedReads  int64
	injectedWrites int64
	injectedOps    int64
	tornWrites     int64
	bitFlips       int64
	readFlips      int64
}

// NewFault wraps inner with deterministic fault injection.
func NewFault(inner Backend, f Faults) *Fault {
	return &Fault{inner: inner, f: f, rng: rand.New(rand.NewSource(f.Seed))}
}

// Name implements Backend.
func (b *Fault) Name() string { return "fault(" + b.inner.Name() + ")" }

// Inner returns the wrapped backend (tests reach through to verify
// on-media state).
func (b *Fault) Inner() Backend { return b.inner }

// Injected returns how many faults of each kind have fired:
// reads, writes, ops, torn writes, bit flips.
func (b *Fault) Injected() (reads, writes, ops, torn, flips int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.injectedReads, b.injectedWrites, b.injectedOps, b.tornWrites, b.bitFlips
}

// InjectedReadFlips returns how many read-path bit flips have fired.
func (b *Fault) InjectedReadFlips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.readFlips
}

// roll draws one uniform [0,1) variate (and applies latency) under the
// lock — the single PRNG keeps the fault sequence deterministic for a
// deterministic operation order.
func (b *Fault) roll() float64 {
	b.mu.Lock()
	v := b.rng.Float64()
	var lat time.Duration
	if b.f.MaxLatency > 0 {
		lat = time.Duration(b.rng.Int63n(int64(b.f.MaxLatency)))
	}
	b.mu.Unlock()
	if lat > 0 {
		time.Sleep(lat)
	}
	return v
}

// randInt63n draws a uniform [0,n) integer under the lock.
func (b *Fault) randInt63n(n int64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rng.Int63n(n)
}

func (b *Fault) count(c *int64) {
	b.mu.Lock()
	*c++
	b.mu.Unlock()
}

// Put implements Backend. Failure modes, in order of the dice: clean
// write error (transient, nothing committed), torn write (a prefix
// commits), bit flips (full length commits, damaged). Torn and flipped
// writes return nil — that is the point.
func (b *Fault) Put(name string, write func(w io.Writer) error) error {
	if b.roll() < b.f.WriteErr {
		b.count(&b.injectedWrites)
		return Transient(fmt.Errorf("put %q: %w", name, ErrInjected))
	}
	torn := b.roll() < b.f.TornWrite
	return b.inner.Put(name, func(w io.Writer) error {
		fw := &faultWriter{b: b, w: w, torn: torn}
		if torn {
			// Cut somewhere in the first 64KiB — early enough to tear
			// the header or an early chunk of any real object.
			fw.cutAt = 1 + b.randInt63n(64<<10)
		}
		err := write(fw)
		if err == nil && torn && !fw.cut {
			// The object was shorter than the cut point; tear the tail
			// anyway by reporting the write complete as-is (nothing to
			// do — the whole object was written). Count only real cuts.
			return nil
		}
		if fw.cut {
			b.count(&b.tornWrites)
			// Swallow the generator's error: the crash model is "the
			// process died and the file still got renamed into place"
			// (e.g. rename reordered before data flush on a power cut).
			return nil
		}
		return err
	})
}

// faultWriter sits between the Put callback and the inner backend's
// writer, tearing and flipping as configured. It forwards Seek when
// the inner writer supports it (the codec's header back-patch), which
// also means a bit flip can land in already-patched bytes — exactly
// the kind of damage CRCs are there to catch.
type faultWriter struct {
	b       *Fault
	w       io.Writer
	torn    bool
	cutAt   int64 // tear after this many bytes (when torn)
	written int64
	cut     bool
}

// errTorn aborts the callback once the cut point is reached; Put
// swallows it so the torn object commits.
var errTorn = errors.New("torn write cut point")

func (fw *faultWriter) Write(p []byte) (int, error) {
	if fw.cut {
		return 0, errTorn
	}
	if fw.torn && fw.written+int64(len(p)) > fw.cutAt {
		keep := fw.cutAt - fw.written
		if keep < 0 {
			keep = 0
		}
		if keep > 0 {
			if _, err := fw.w.Write(p[:keep]); err != nil {
				return 0, err
			}
		}
		fw.written += keep
		fw.cut = true
		return int(keep), errTorn
	}
	if fw.b.f.BitFlip > 0 && fw.b.roll() < fw.b.f.BitFlip {
		// Copy before flipping: the io.Writer contract forbids
		// mutating the caller's slice (bufio and the codec reuse
		// their buffers).
		dam := make([]byte, len(p))
		copy(dam, p)
		bit := fw.b.randInt63n(int64(len(dam)) * 8)
		dam[bit/8] ^= 1 << (bit % 8)
		fw.b.count(&fw.b.bitFlips)
		p = dam
	}
	n, err := fw.w.Write(p)
	fw.written += int64(n)
	return n, err
}

// Seek forwards to the inner writer when seekable. A torn writer
// refuses to seek once cut (the file is already abandoned mid-write).
func (fw *faultWriter) Seek(offset int64, whence int) (int64, error) {
	if fw.cut {
		return 0, errTorn
	}
	ws, ok := fw.w.(io.WriteSeeker)
	if !ok {
		return 0, fmt.Errorf("fault: inner writer is not seekable")
	}
	// Seeking makes the linear "written" count meaningless for
	// tearing; keep tearing on total bytes pushed, which is what the
	// crash model cares about.
	return ws.Seek(offset, whence)
}

// Get implements Backend. An injected read failure is either an open
// error or a mid-stream error after a random prefix — both transient.
func (b *Fault) Get(name string) (io.ReadCloser, error) {
	if v := b.roll(); v < b.f.ReadErr {
		b.count(&b.injectedReads)
		if v < b.f.ReadErr/2 {
			return nil, Transient(fmt.Errorf("get %q: %w", name, ErrInjected))
		}
		rc, err := b.inner.Get(name)
		if err != nil {
			return nil, err
		}
		return &failingReader{rc: rc, failAfter: b.randInt63n(64 << 10), name: name}, nil
	}
	// Only roll for a read flip when the knob is set, so existing
	// seeded fault sequences are unchanged when the feature is off.
	if b.f.ReadFlip > 0 && b.roll() < b.f.ReadFlip {
		rc, err := b.inner.Get(name)
		if err != nil {
			return nil, err
		}
		// Read the object fully and flip one bit at a uniform position
		// in its actual length, so the damage is guaranteed to land and
		// is deterministic regardless of the caller's read-chunk sizes.
		data, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
		if len(data) > 0 {
			bit := b.randInt63n(int64(len(data)) * 8)
			data[bit/8] ^= 1 << (bit % 8)
			b.count(&b.readFlips)
		}
		return io.NopCloser(bytes.NewReader(data)), nil
	}
	return b.inner.Get(name)
}

// failingReader reads normally for failAfter bytes, then fails with a
// transient error — the mid-stream disk hiccup.
type failingReader struct {
	rc        io.ReadCloser
	failAfter int64
	read      int64
	name      string
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.read >= r.failAfter {
		return 0, Transient(fmt.Errorf("read %q after %d bytes: %w", r.name, r.read, ErrInjected))
	}
	if max := r.failAfter - r.read; int64(len(p)) > max {
		p = p[:max]
	}
	n, err := r.rc.Read(p)
	r.read += int64(n)
	return n, err
}

func (r *failingReader) Close() error { return r.rc.Close() }

// opErr rolls for an operational fault on op/name.
func (b *Fault) opErr(op, name string) error {
	if b.roll() < b.f.OpErr {
		b.count(&b.injectedOps)
		return Transient(fmt.Errorf("%s %q: %w", op, name, ErrInjected))
	}
	return nil
}

// Stat implements Backend.
func (b *Fault) Stat(name string) (Info, error) {
	if err := b.opErr("stat", name); err != nil {
		return Info{}, err
	}
	return b.inner.Stat(name)
}

// List implements Backend.
func (b *Fault) List(prefix string) ([]string, error) {
	if err := b.opErr("list", prefix); err != nil {
		return nil, err
	}
	return b.inner.List(prefix)
}

// Delete implements Backend.
func (b *Fault) Delete(name string) error {
	if err := b.opErr("delete", name); err != nil {
		return err
	}
	return b.inner.Delete(name)
}

// Rename implements Backend. Quarantining rides on Rename, so under
// OpErr even self-healing itself is exercised against failure.
func (b *Fault) Rename(old, new string) error {
	if err := b.opErr("rename", old); err != nil {
		return err
	}
	return b.inner.Rename(old, new)
}

// Sweep implements Backend (never injected: hygiene is best-effort
// already).
func (b *Fault) Sweep(olderThan time.Duration) int { return b.inner.Sweep(olderThan) }

// ParseFaults parses a comma-separated fault spec, e.g.
//
//	"seed=7,readerr=0.1,writeerr=0.1,bitflip=0.05,tornwrite=0.05,operr=0.02,latency=2ms"
//
// Unknown keys and malformed values are errors (a chaos run with a
// silently-ignored knob tests nothing). The zero spec "" is invalid —
// callers gate on the flag being set at all.
func ParseFaults(spec string) (Faults, error) {
	var f Faults
	if strings.TrimSpace(spec) == "" {
		return f, fmt.Errorf("empty fault spec")
	}
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return f, fmt.Errorf("fault spec %q: want key=value", kv)
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return f, fmt.Errorf("fault spec seed=%q: %w", val, err)
			}
			f.Seed = n
		case "latency":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return f, fmt.Errorf("fault spec latency=%q: want a non-negative duration", val)
			}
			f.MaxLatency = d
		case "readerr", "writeerr", "operr", "tornwrite", "bitflip", "readflip":
			p, err := strconv.ParseFloat(val, 64)
			if err != nil || p < 0 || p > 1 {
				return f, fmt.Errorf("fault spec %s=%q: want a probability in [0,1]", key, val)
			}
			switch key {
			case "readerr":
				f.ReadErr = p
			case "writeerr":
				f.WriteErr = p
			case "operr":
				f.OpErr = p
			case "tornwrite":
				f.TornWrite = p
			case "bitflip":
				f.BitFlip = p
			case "readflip":
				f.ReadFlip = p
			}
		default:
			keys := []string{"seed", "readerr", "writeerr", "operr", "tornwrite", "bitflip", "readflip", "latency"}
			sort.Strings(keys)
			return f, fmt.Errorf("fault spec: unknown key %q (known: %s)", key, strings.Join(keys, ", "))
		}
	}
	return f, nil
}
