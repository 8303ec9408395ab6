package storage_test

import (
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/blob"
	"repro/internal/storage/blob/storagetest"
)

// tieredOverMem wires a Tiered backend whose remote tier is a real
// blob server over remoteMem, returning both ends.
func tieredOverMem(t *testing.T) (*storage.Tiered, *blob.Mem) {
	t.Helper()
	remoteMem := blob.NewMem()
	srv := httptest.NewServer(storage.BlobHandler(remoteMem))
	t.Cleanup(srv.Close)
	peer := storage.NewPeer(peerClient(), []string{srv.URL})
	return storage.NewTiered(blob.NewMem(), peer), remoteMem
}

func TestTieredPeerFetchWritesThrough(t *testing.T) {
	tiered, remoteMem := tieredOverMem(t)
	storagetest.Put(t, remoteMem, "hot.bin", "from the peer")

	if got := storagetest.Get(t, tiered, "hot.bin"); got != "from the peer" {
		t.Fatalf("peer fetch: %q", got)
	}
	s := tiered.Stats()
	if s.PeerHits != 1 || s.WriteThroughs != 1 || s.LocalHits != 0 {
		t.Fatalf("after peer fetch: %+v", s)
	}
	// An object nowhere in the cluster is a plain miss.
	if _, err := tiered.Get("missing-everywhere.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("cluster-wide miss: %v", err)
	}
	if s := tiered.Stats(); s.PeerMisses != 1 {
		t.Fatalf("cluster-wide miss not counted: %+v", s)
	}
	// Second read is a local hit — no peer round trip.
	if got := storagetest.Get(t, tiered, "hot.bin"); got != "from the peer" {
		t.Fatalf("local re-read: %q", got)
	}
	s = tiered.Stats()
	if s.LocalHits != 1 || s.PeerHits != 1 {
		t.Fatalf("after re-read: %+v", s)
	}
}

func TestTieredPeerReaderReportsBlobSource(t *testing.T) {
	tiered, remoteMem := tieredOverMem(t)
	storagetest.Put(t, remoteMem, "hot.bin", "x")
	rc, err := tiered.Get("hot.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	src, ok := rc.(interface{ BlobSource() string })
	if !ok || src.BlobSource() != "peer" {
		t.Fatalf("peer-served reader must report BlobSource peer, got %T", rc)
	}
	// A local hit must NOT claim to be peer-served.
	rc2, err := tiered.Get("hot.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	if _, ok := rc2.(interface{ BlobSource() string }); ok {
		t.Fatal("local hit must not carry a peer BlobSource")
	}
}

func TestTieredRemoteFailureReadsAsLocalMiss(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	peer := storage.NewPeer(peerClient(), []string{dead.URL})
	tiered := storage.NewTiered(blob.NewMem(), peer)
	_, err := tiered.Get("gone.bin")
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("dead peer tier must surface the local miss, got %v", err)
	}
	if s := tiered.Stats(); s.PeerErrors != 1 {
		t.Fatalf("peer failure not counted: %+v", s)
	}
}

func TestTieredMutationsStayLocal(t *testing.T) {
	tiered, remoteMem := tieredOverMem(t)
	storagetest.Put(t, tiered, "local.bin", "mine")
	if remoteMem.Len() != 0 {
		t.Fatal("tiered put leaked to the remote tier")
	}
	storagetest.Put(t, remoteMem, "theirs.bin", "remote only")
	names, err := tiered.List("")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "theirs.bin" {
			t.Fatal("tiered list must stay node-local")
		}
	}
	if err := tiered.Delete("local.bin"); err != nil {
		t.Fatal(err)
	}
	// Deleting a remote-only object is a local miss: mutations never
	// reach across the wire.
	if err := tiered.Delete("theirs.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("delete of remote-only object: %v", err)
	}
}

func TestTieredTornPeerTransferWritesNothingThrough(t *testing.T) {
	// A remote that advertises more bytes than it sends: the client
	// sees a truncated transfer, which must read as a local miss and
	// must not write a partial object through.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "1000")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "only this much")
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		// Hijack and slam the connection so the client cannot read the
		// remaining bytes.
		if hj, ok := w.(http.Hijacker); ok {
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close()
			}
		}
	}))
	t.Cleanup(srv.Close)
	local := blob.NewMem()
	tiered := storage.NewTiered(local, storage.NewPeer(peerClient(), []string{srv.URL}))
	_, err := tiered.Get("torn.bin")
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("torn peer transfer must read as the local miss, got %v", err)
	}
	if local.Len() != 0 {
		t.Fatal("torn peer transfer was written through locally")
	}
	if s := tiered.Stats(); s.PeerErrors != 1 || s.WriteThroughs != 0 {
		t.Fatalf("torn transfer accounting: %+v", s)
	}
}
