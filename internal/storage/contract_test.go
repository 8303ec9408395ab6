package storage_test

import (
	"io"
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
// exported contract suite. Peer, which is read-only, passes its read
// half against real HTTP servers (BlobHandler over Mem on httptest
// listeners), so the suite exercises the wire protocol too.

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
// its namespace base URL and the backend it serves.
func blobServer(t *testing.T) (string, *blob.Mem) {
	t.Helper()
	mem := blob.NewMem()
	srv := httptest.NewServer(http.StripPrefix("/v1/blobs/results/", storage.BlobHandler(mem)))
	t.Cleanup(srv.Close)
	return srv.URL + "/v1/blobs/results", mem
}

func peerClient() *http.Client { return &http.Client{Timeout: 5 * time.Second} }

func TestPeerContract(t *testing.T) {
	storagetest.TestReader(t, func(t *testing.T) (blob.Backend, blob.Backend) {
		url, mem := blobServer(t)
		return storage.NewPeer(peerClient(), []string{url}), mem
	})
}

// spread is the writer behind a Peer over several nodes: Put puts each
// object on one node's backend, chosen by the name's first byte, so the
// suite's a.bin and b.bin land on different nodes and the Peer must
// union its listing. Delete and Rename go where Put put the name.
type spread struct {
	blob.Backend // nil: nothing reads through a spread
	nodes        []blob.Backend
}

func (s spread) node(name string) blob.Backend { return s.nodes[int(name[0])%len(s.nodes)] }

func (s spread) Put(name string, write func(w io.Writer) error) error {
	return s.node(name).Put(name, write)
}

func (s spread) Delete(name string) error     { return s.node(name).Delete(name) }
func (s spread) Rename(old, new string) error { return s.node(old).Rename(old, new) }

func TestPeerTwoNodeContract(t *testing.T) {
	// Two remote nodes: rendezvous routing must still present one
	// coherent namespace, whichever node holds an object.
	storagetest.TestReader(t, func(t *testing.T) (blob.Backend, blob.Backend) {
		url0, mem0 := blobServer(t)
		url1, mem1 := blobServer(t)
		return storage.NewPeer(peerClient(), []string{url0, url1}), spread{nodes: []blob.Backend{mem0, mem1}}
	})
}

func TestTieredContract(t *testing.T) {
	storagetest.TestBackend(t, func(t *testing.T) blob.Backend {
		url, _ := blobServer(t)
		remote := storage.NewPeer(peerClient(), []string{url})
		return storage.NewTiered(blob.NewMem(), remote)
	})
}
