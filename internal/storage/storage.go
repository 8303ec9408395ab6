// Package storage is the cluster tier of the blob-storage layer: the
// part of it that speaks HTTP, so only the daemon (cmd/rapwamd, through
// internal/service) links it. The HTTP-free core — the Backend
// contract, the error taxonomy, Dir, Mem and Fault — is package
// internal/storage/blob, which the trace store, the grid and every
// batch CLI import on their own.
//
// The implementations here compose blob.Backends across nodes:
//
//   - Peer — a read-only HTTP client backend over the blob protocol
//     other rapwamd nodes serve (BlobHandler), reads routed
//     owner-first by rendezvous hashing (Rendezvous);
//   - Tiered — local-first composition with peer-fetch + local
//     write-through on miss: the cluster read tier;
//   - BlobHandler — the server side of that protocol over a node's
//     local backend: GET and HEAD only, so no client can change what
//     a node stores.
//
// The blob protocol is unauthenticated. The content checks above it
// (envelope key fields and result_sha256, RWT2 chunk CRCs, the RWO1
// SHA-256) catch corruption, not forgery: anyone can compute them. A
// cluster's members, and the network between them, must be trusted.
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
