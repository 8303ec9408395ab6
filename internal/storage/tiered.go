package storage

import (
	"bytes"
	"errors"
	"io"
	"io/fs"
	"sync/atomic"
	"time"

	"repro/internal/storage/blob"
)

// TieredStats is a point-in-time snapshot of a Tiered backend's
// counters, surfaced in /v1/stats.
type TieredStats struct {
	// LocalHits counts Gets served from the local tier.
	LocalHits int64 `json:"local_hits"`
	// PeerHits counts Gets the local tier missed and a peer served.
	PeerHits int64 `json:"peer_hits"`
	// PeerMisses counts Gets no tier could serve.
	PeerMisses int64 `json:"peer_misses"`
	// PeerErrors counts Gets where the peer tier failed (transport or
	// remote backend); the caller sees the local miss and recomputes.
	PeerErrors int64 `json:"peer_errors"`
	// WriteThroughs counts peer-served objects copied into the local
	// tier, and WriteThroughFails the copies that failed (the object
	// is still served from memory either way).
	WriteThroughs     int64 `json:"write_throughs"`
	WriteThroughFails int64 `json:"write_through_fails"`
}

// Tiered composes a local backend with a remote (peer) backend into
// the cluster read path: Get serves from local first and on a local
// miss fetches from the remote, writing the object through to local so
// the next read is a local hit; Stat also falls back to the remote.
// Put, Delete, Rename, List and Sweep operate on the local tier only:
// each node owns its own mutations and hygiene, the remote tier (a
// Peer) is read-only, and objects spread between nodes only by being
// read.
//
// A remote failure is never surfaced from Get: the caller sees the
// local miss and recomputes (results here are pure functions — a
// perfect remote is an optimization, not a dependency). Content
// verification stays with the callers (the stores' CRC/SHA checks), so
// a corrupt peer blob is quarantined and healed exactly like a corrupt
// local one.
type Tiered struct {
	local  blob.Backend
	remote blob.Backend

	localHits         atomic.Int64
	peerHits          atomic.Int64
	peerMisses        atomic.Int64
	peerErrors        atomic.Int64
	writeThroughs     atomic.Int64
	writeThroughFails atomic.Int64
}

// NewTiered composes local and remote into a tiered backend.
func NewTiered(local, remote blob.Backend) *Tiered {
	return &Tiered{local: local, remote: remote}
}

// Name implements blob.Backend.
func (t *Tiered) Name() string {
	return "tiered(" + t.local.Name() + " + " + t.remote.Name() + ")"
}

// Local returns the local tier. The serving layer mounts BlobHandler
// over this (never over the Tiered itself) so peers are served only
// node-local objects.
func (t *Tiered) Local() blob.Backend { return t.local }

// Stats snapshots the tier counters.
func (t *Tiered) Stats() TieredStats {
	return TieredStats{
		LocalHits:         t.localHits.Load(),
		PeerHits:          t.peerHits.Load(),
		PeerMisses:        t.peerMisses.Load(),
		PeerErrors:        t.peerErrors.Load(),
		WriteThroughs:     t.writeThroughs.Load(),
		WriteThroughFails: t.writeThroughFails.Load(),
	}
}

// peerReadCloser marks a reader as peer-served; the result cache type-
// asserts for BlobSource to report X-Result-Source: peer.
type peerReadCloser struct {
	io.ReadCloser
}

// BlobSource identifies where the bytes came from.
func (peerReadCloser) BlobSource() string { return "peer" }

// Get implements Backend: local first, then the remote tier with
// write-through. The remote object is read fully before anything is
// returned — a mid-fetch transport failure therefore looks like a
// local miss, never a mid-stream error, and nothing partial is ever
// written through.
func (t *Tiered) Get(name string) (io.ReadCloser, error) {
	rc, localErr := t.local.Get(name)
	if localErr == nil {
		t.localHits.Add(1)
		return rc, nil
	}
	remote, err := t.remote.Get(name)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			t.peerMisses.Add(1)
		} else {
			t.peerErrors.Add(1)
		}
		return nil, localErr
	}
	data, err := io.ReadAll(remote)
	remote.Close()
	if err != nil {
		t.peerErrors.Add(1)
		return nil, localErr
	}
	t.peerHits.Add(1)
	if err := t.local.Put(name, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		t.writeThroughFails.Add(1)
	} else {
		t.writeThroughs.Add(1)
	}
	return peerReadCloser{io.NopCloser(bytes.NewReader(data))}, nil
}

// Stat implements Backend: local first, then remote (no write-through
// — stat is metadata, not content).
func (t *Tiered) Stat(name string) (blob.Info, error) {
	info, localErr := t.local.Stat(name)
	if localErr == nil {
		return info, nil
	}
	if info, err := t.remote.Stat(name); err == nil {
		return info, nil
	}
	return blob.Info{}, localErr
}

// Put implements blob.Backend (local tier only).
func (t *Tiered) Put(name string, write func(w io.Writer) error) error {
	return t.local.Put(name, write)
}

// Delete implements blob.Backend (local tier only).
func (t *Tiered) Delete(name string) error { return t.local.Delete(name) }

// Rename implements blob.Backend (local tier only): quarantining removes
// the corrupt object from this node's serving set — and from the blob
// API, so peers stop fetching it too.
func (t *Tiered) Rename(old, new string) error { return t.local.Rename(old, new) }

// List implements blob.Backend (local tier only, so scrubbing stays
// node-local).
func (t *Tiered) List(prefix string) ([]string, error) { return t.local.List(prefix) }

// Sweep implements blob.Backend (local tier only; each node sweeps itself).
func (t *Tiered) Sweep(olderThan time.Duration) int { return t.local.Sweep(olderThan) }

var _ blob.Backend = (*Tiered)(nil)
