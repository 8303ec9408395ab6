package storage_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/storage"
	"repro/internal/storage/blob"
	"repro/internal/storage/blob/storagetest"
)

func TestRendezvousDeterministicAndOrderIndependent(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	shuffled := []string{"http://c:1", "http://a:1", "http://b:1"}
	for _, key := range []string{"x.bin", "y.bin", "fig2-abc123.json", "quarantine/z.bin"} {
		a := storage.Rendezvous(key, nodes)
		b := storage.Rendezvous(key, shuffled)
		if strings.Join(a, ",") != strings.Join(b, ",") {
			t.Fatalf("rendezvous order for %q depends on input order: %v vs %v", key, a, b)
		}
		if strings.Join(a, ",") != strings.Join(storage.Rendezvous(key, nodes), ",") {
			t.Fatalf("rendezvous for %q is not deterministic", key)
		}
	}
}

func TestRendezvousSpreadsOwnership(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	owned := map[string]int{}
	for i := 0; i < 300; i++ {
		key := strings.Repeat("k", 1+i%7) + string(rune('a'+i%26)) + ".bin"
		owned[storage.Rendezvous(key, nodes)[0]]++
	}
	for _, n := range nodes {
		if owned[n] == 0 {
			t.Fatalf("node %s owns no keys out of 300: %v", n, owned)
		}
	}
}

func TestRendezvousRemovalOnlyMovesOwnedKeys(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:1", "http://c:1"}
	survivors := []string{"http://a:1", "http://c:1"}
	for i := 0; i < 200; i++ {
		key := string(rune('a'+i%26)) + strings.Repeat("x", i%11) + ".bin"
		before := storage.Rendezvous(key, nodes)[0]
		after := storage.Rendezvous(key, survivors)[0]
		if before != "http://b:1" && after != before {
			t.Fatalf("removing b moved key %q from %s to %s", key, before, after)
		}
	}
}

func TestPeerAllNodesDownIsTransient(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close() // connection refused from here on
	p := storage.NewPeer(peerClient(), []string{dead.URL})
	if _, err := p.Get("a.bin"); !blob.IsTransient(err) {
		t.Fatalf("get with all peers down must be transient, got %v", err)
	}
	if errors.Is(func() error { _, err := p.Get("a.bin"); return err }(), fs.ErrNotExist) {
		t.Fatal("an unreachable fleet must not read as a miss")
	}
	if _, err := p.List(""); !blob.IsTransient(err) {
		t.Fatalf("list with a node down must be transient, got %v", err)
	}
}

func TestPeerNoNodesIsAlwaysMiss(t *testing.T) {
	p := storage.NewPeer(peerClient(), nil)
	if _, err := p.Get("a.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("get with no nodes: %v", err)
	}
	if _, err := p.Stat("a.bin"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("stat with no nodes: %v", err)
	}
	names, err := p.List("")
	if err != nil || len(names) != 0 {
		t.Fatalf("list with no nodes: %v, %v", names, err)
	}
}

// TestPeerRefusesWrites: the blob protocol is read-only, so every Peer
// mutation fails with errors.ErrUnsupported, never calls a write
// callback and sends no request.
func TestPeerRefusesWrites(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	t.Cleanup(srv.Close)
	p := storage.NewPeer(peerClient(), []string{srv.URL})
	refusals := map[string]error{
		"put": p.Put("a.bin", func(w io.Writer) error {
			t.Error("put called its write callback")
			return nil
		}),
		"delete": p.Delete("a.bin"),
		"rename": p.Rename("a.bin", blob.QuarantinePrefix+"a.bin"),
	}
	for op, err := range refusals {
		if !errors.Is(err, errors.ErrUnsupported) {
			t.Errorf("%s: %v, want errors.ErrUnsupported", op, err)
		}
	}
	if n := p.Sweep(0); n != 0 {
		t.Errorf("sweep removed %d objects, want 0", n)
	}
	if n := requests.Load(); n != 0 {
		t.Fatalf("refused writes sent %d requests", n)
	}
}

func TestPeerReadsPreferOwner(t *testing.T) {
	// Two nodes; only the rendezvous owner holds the object. The first
	// request must go to the owner (one request total, no fan-out).
	var hits [2]int
	mems := [2]*blob.Mem{blob.NewMem(), blob.NewMem()}
	var urls []string
	for i := 0; i < 2; i++ {
		i := i
		h := http.StripPrefix("/", storage.BlobHandler(mems[i]))
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits[i]++
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	const name = "owned.bin"
	owner := storage.Rendezvous(name, urls)[0]
	ownerIdx := 0
	if owner == urls[1] {
		ownerIdx = 1
	}
	if err := mems[ownerIdx].Put(name, func(w io.Writer) error {
		_, err := io.WriteString(w, "payload")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	p := storage.NewPeer(peerClient(), urls)
	rc, err := p.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	io.ReadAll(rc)
	rc.Close()
	if hits[ownerIdx] != 1 || hits[1-ownerIdx] != 0 {
		t.Fatalf("warm owner-first get took %d owner / %d non-owner requests, want 1/0", hits[ownerIdx], hits[1-ownerIdx])
	}
}

func TestBlobHandlerRejectsEscapes(t *testing.T) {
	srv := httptest.NewServer(http.StripPrefix("/", storage.BlobHandler(blob.NewMem())))
	t.Cleanup(srv.Close)
	for _, method := range []string{http.MethodGet, http.MethodHead} {
		for _, path := range []string{"/..%2Fescape.bin", "/a%2F..%2F..%2Fb"} {
			req, err := http.NewRequest(method, srv.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %s: status %d, want 400", method, path, resp.StatusCode)
			}
		}
	}
}

// countingBackend counts the List and Stat calls made on its backend.
type countingBackend struct {
	blob.Backend
	lists, stats atomic.Int64
}

func (c *countingBackend) List(prefix string) ([]string, error) {
	c.lists.Add(1)
	return c.Backend.List(prefix)
}

func (c *countingBackend) Stat(name string) (blob.Info, error) {
	c.stats.Add(1)
	return c.Backend.Stat(name)
}

// TestBlobHandlerHeadRootListsNothing: HEAD on a namespace root is the
// cluster's reachability probe and answers with headers alone, while
// GET on the root still lists and stats every object.
func TestBlobHandlerHeadRootListsNothing(t *testing.T) {
	b := &countingBackend{Backend: blob.NewMem()}
	storagetest.Put(t, b, "a.bin", "one")
	storagetest.Put(t, b, "b.bin", "two")
	srv := httptest.NewServer(http.StripPrefix("/", storage.BlobHandler(b)))
	t.Cleanup(srv.Close)

	resp, err := http.Head(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || b.lists.Load() != 0 || b.stats.Load() != 0 {
		t.Fatalf("HEAD /: status %d after %d List and %d Stat calls, want 200 after none",
			resp.StatusCode, b.lists.Load(), b.stats.Load())
	}

	resp, err = http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Objects []struct {
			Name string `json:"name"`
			Size int64  `json:"size"`
		} `json:"objects"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(body.Objects); got != "[{a.bin 3} {b.bin 3}]" {
		t.Fatalf("GET / listed %s", got)
	}
	if b.lists.Load() != 1 || b.stats.Load() != 2 {
		t.Fatalf("GET /: %d List and %d Stat calls, want 1 and 2", b.lists.Load(), b.stats.Load())
	}
}
