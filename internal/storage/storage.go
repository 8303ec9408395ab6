// Package storage is the cluster tier of the blob-storage layer: the
// part of it that speaks HTTP, so only the daemon (cmd/rapwamd, through
// internal/service) links it. The HTTP-free core — the Backend
// contract, the error taxonomy, Dir, Mem and Fault — is package
// internal/storage/blob, which the trace store, the grid and every
// batch CLI import on their own.
//
// The implementations here compose blob.Backends across nodes:
//
//   - Peer — an HTTP client backend over the blob protocol other
//     rapwamd nodes serve (BlobHandler), reads routed owner-first by
//     rendezvous hashing (Rendezvous);
//   - Tiered — local-first composition with peer-fetch + local
//     write-through on miss: the cluster read tier;
//   - BlobHandler — the server side of that protocol over a node's
//     local backend.
package storage

import (
	"time"

	"repro/internal/storage/blob"
)

// NewDir forwards to blob.NewDir for callers that still reach the
// directory backend through this package (the benchmark harness,
// cmd/rapwambench).
func NewDir(root string, tempAge time.Duration) (*blob.Dir, error) {
	return blob.NewDir(root, tempAge)
}
