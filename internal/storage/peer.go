package storage

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/storage/blob"
)

// Rendezvous orders nodes by highest-random-weight (HRW) hash for key:
// every node that evaluates it independently computes the same order,
// so the first element is the key's deterministic owner with no
// coordination, and removing a node only reassigns that node's keys.
// The input slice is not modified; ties (duplicate nodes) break by
// node string so the order is total.
func Rendezvous(key string, nodes []string) []string {
	type scored struct {
		node  string
		score uint64
	}
	scores := make([]scored, len(nodes))
	for i, n := range nodes {
		h := sha256.Sum256([]byte(n + "\x00" + key))
		scores[i] = scored{node: n, score: binary.BigEndian.Uint64(h[:8])}
	}
	sort.Slice(scores, func(i, j int) bool {
		if scores[i].score != scores[j].score {
			return scores[i].score > scores[j].score
		}
		return scores[i].node < scores[j].node
	})
	out := make([]string, len(nodes))
	for i, s := range scores {
		out[i] = s.node
	}
	return out
}

// Peer is a read-only blob.Backend client for the blob protocol other
// rapwamd nodes serve under /v1/blobs/ (see BlobHandler). Each node URL
// is the base of one remote namespace, e.g.
// "http://host:8080/v1/blobs/results".
//
// Reads (Get/Stat) try nodes in Rendezvous order for the object name —
// owner first, so the common warm fetch is one round trip. A name no
// node has is a miss (fs.ErrNotExist); any transport failure without a
// hit is a blob.TransientError, never corruption, so a flaky network cannot
// get healthy objects quarantined. List unions all nodes. The protocol
// has no writes: Put, Delete and Rename return an error wrapping
// errors.ErrUnsupported without sending anything, and Sweep removes
// nothing.
//
// Peer holds no local state — compose it behind a local backend with
// NewTiered for the cluster read tier.
type Peer struct {
	client *http.Client
	nodes  []string
}

// NewPeer returns a Peer over the given node base URLs (trailing
// slashes are trimmed). A nil client gets a 10-second timeout default.
// An empty node list is legal and behaves as an always-missing
// backend, so "no peers configured" needs no special-casing in callers.
func NewPeer(client *http.Client, nodes []string) *Peer {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	trimmed := make([]string, len(nodes))
	for i, n := range nodes {
		trimmed[i] = strings.TrimRight(n, "/")
	}
	return &Peer{client: client, nodes: trimmed}
}

// Name implements blob.Backend.
func (p *Peer) Name() string { return "peer(" + strings.Join(p.nodes, ",") + ")" }

// objectURL builds the blob URL for name on node, escaping each path
// segment (names may contain slashes: "quarantine/...").
func objectURL(node, name string) string {
	if name == "" {
		return node + "/"
	}
	segs := strings.Split(name, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return node + "/" + strings.Join(segs, "/")
}

// notExist builds the peer miss error (errors.Is fs.ErrNotExist).
func (p *Peer) notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

// Get implements Backend: try each node in rendezvous order; first 200
// wins. All nodes answering 404 is a miss; anything else without a hit
// is transient.
func (p *Peer) Get(name string) (io.ReadCloser, error) {
	var lastErr error
	for _, node := range Rendezvous(name, p.nodes) {
		resp, err := p.client.Get(objectURL(node, name))
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return &peerBody{rc: resp.Body, name: name}, nil
		case http.StatusNotFound:
			resp.Body.Close()
		default:
			resp.Body.Close()
			lastErr = fmt.Errorf("%s: status %s", node, resp.Status)
		}
	}
	if lastErr != nil {
		return nil, blob.Transient(fmt.Errorf("peer get %q: %w", name, lastErr))
	}
	// Every node answered 404 (or none are configured): a true miss.
	return nil, p.notExist("get", name)
}

// peerBody wraps a blob response body, classifying every mid-stream
// failure (connection reset, truncation against Content-Length) as
// transient: a broken transfer is flaky I/O, not evidence the remote
// object is corrupt.
type peerBody struct {
	rc   io.ReadCloser
	name string
}

func (r *peerBody) Read(p []byte) (int, error) {
	n, err := r.rc.Read(p)
	if err != nil && err != io.EOF {
		err = blob.Transient(fmt.Errorf("peer read %q: %w", r.name, err))
	}
	return n, err
}

func (r *peerBody) Close() error { return r.rc.Close() }

// Stat implements blob.Backend via HEAD, same node order and miss/transient
// classification as Get.
func (p *Peer) Stat(name string) (blob.Info, error) {
	var lastErr error
	for _, node := range Rendezvous(name, p.nodes) {
		req, err := http.NewRequest(http.MethodHead, objectURL(node, name), nil)
		if err != nil {
			return blob.Info{}, &blob.Error{Op: "stat", Backend: p.Name(), Name: name, Err: err}
		}
		resp, err := p.client.Do(req)
		if err != nil {
			lastErr = err
			continue
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			var info blob.Info
			info.Size = resp.ContentLength
			if t, err := http.ParseTime(resp.Header.Get("Last-Modified")); err == nil {
				info.ModTime = t
			}
			return info, nil
		case http.StatusNotFound:
			// keep trying other nodes
		default:
			lastErr = fmt.Errorf("%s: status %s", node, resp.Status)
		}
	}
	if lastErr != nil {
		return blob.Info{}, blob.Transient(fmt.Errorf("peer stat %q: %w", name, lastErr))
	}
	return blob.Info{}, p.notExist("stat", name)
}

// Put implements blob.Backend by refusing: the blob protocol is
// read-only, so a Peer sends no write. Each node's objects change only
// through its own stores.
func (p *Peer) Put(name string, _ func(w io.Writer) error) error {
	return &blob.Error{Op: "put", Backend: p.Name(), Name: name, Err: errors.ErrUnsupported}
}

// Delete implements blob.Backend by refusing, as Put does.
func (p *Peer) Delete(name string) error {
	return &blob.Error{Op: "delete", Backend: p.Name(), Name: name, Err: errors.ErrUnsupported}
}

// Rename implements blob.Backend by refusing, as Put does.
func (p *Peer) Rename(old, _ string) error {
	return &blob.Error{Op: "rename", Backend: p.Name(), Name: old, Err: errors.ErrUnsupported}
}

// List implements blob.Backend, unioning every node's listing (sorted,
// deduplicated). A node that cannot answer makes the whole listing
// transient — a silently partial listing would let a scrubber conclude
// objects are gone.
func (p *Peer) List(prefix string) ([]string, error) {
	seen := make(map[string]bool)
	for _, node := range p.nodes {
		resp, err := p.client.Get(node + "/?prefix=" + url.QueryEscape(prefix))
		if err != nil {
			return nil, blob.Transient(fmt.Errorf("peer list %q: %w", prefix, err))
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, blob.Transient(fmt.Errorf("peer list %q: %s: status %s", prefix, node, resp.Status))
		}
		var body struct {
			Objects []struct {
				Name string `json:"name"`
			} `json:"objects"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return nil, blob.Transient(fmt.Errorf("peer list %q: %s: %w", prefix, node, err))
		}
		for _, o := range body.Objects {
			seen[o.Name] = true
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Sweep implements blob.Backend: each node sweeps itself, so a Peer
// removes nothing.
func (p *Peer) Sweep(time.Duration) int { return 0 }

var _ blob.Backend = (*Peer)(nil)
