package storage_test

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/storage/blob"
	"repro/internal/storage/blob/storagetest"
)

// Every shipped backend — and the cluster compositions — passes the
// identical exported contract suite. The networked backends run
// against a real HTTP server (BlobHandler over Mem on an httptest
// listener), so the suite exercises the wire protocol too.

func TestDirContract(t *testing.T) {
	storagetest.TestBackend(t, func(t *testing.T) blob.Backend {
		d, err := blob.NewDir(filepath.Join(t.TempDir(), "store"), 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
}

func TestMemContract(t *testing.T) {
	storagetest.TestBackend(t, func(t *testing.T) blob.Backend {
		return blob.NewMem()
	})
}

// blobServer starts one blob node over a fresh Mem backend and returns
// its namespace base URL.
func blobServer(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.StripPrefix("/v1/blobs/results/",
		storage.BlobHandler(blob.NewMem())))
	t.Cleanup(srv.Close)
	return srv.URL + "/v1/blobs/results"
}

func peerClient() *http.Client { return &http.Client{Timeout: 5 * time.Second} }

func TestPeerContract(t *testing.T) {
	storagetest.TestBackend(t, func(t *testing.T) blob.Backend {
		return storage.NewPeer(peerClient(), []string{blobServer(t)})
	})
}

func TestPeerTwoNodeContract(t *testing.T) {
	// Two remote nodes: rendezvous routing must still present one
	// coherent namespace (puts land on the owner, reads find them).
	storagetest.TestBackend(t, func(t *testing.T) blob.Backend {
		return storage.NewPeer(peerClient(), []string{blobServer(t), blobServer(t)})
	})
}

func TestTieredContract(t *testing.T) {
	storagetest.TestBackend(t, func(t *testing.T) blob.Backend {
		remote := storage.NewPeer(peerClient(), []string{blobServer(t)})
		return storage.NewTiered(blob.NewMem(), remote)
	})
}
