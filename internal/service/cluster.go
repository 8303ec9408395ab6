package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/storage"
	"repro/internal/storage/blob"
)

// proxyHeader marks a request as already proxied once. The owner
// serves a marked request entirely locally — fetch, compute, or fail —
// so a stale or disagreeing peer list can never bounce one request
// around the fleet.
const proxyHeader = "X-Rapwam-Proxied"

// maxProxyBody bounds how much of a peer's response a proxying node
// will buffer (result envelopes are KBs; this is a backstop against a
// confused or hostile owner).
const maxProxyBody = 64 << 20

// cluster is the server's view of its fleet: the static member list,
// this node's identity, and the counters for the cross-node paths.
// Cell ownership is rendezvous hashing of the result-cache content
// hash over Peers — every node computes the same owner with no
// coordination, so the fleet runs each cold cell exactly once: the
// owner computes, everyone else proxies to it (or fetches the blob a
// moment later).
type cluster struct {
	self   string
	peers  []string // every member, self included (rendezvous domain)
	others []string // peers minus self
	client *http.Client

	proxied        atomic.Int64 // cold computes served by proxying to the owner
	proxyFallbacks atomic.Int64 // owner unreachable/unusable → local compute
	proxiedServes  atomic.Int64 // proxied requests arriving from other nodes
}

// newCluster validates and normalizes the peer configuration. A list
// with fewer than two members returns nil — a solo node needs no
// cluster machinery.
func newCluster(cfg Config) (*cluster, error) {
	if len(cfg.Peers) == 0 {
		return nil, nil
	}
	if cfg.SelfURL == "" {
		return nil, fmt.Errorf("service: Peers set but SelfURL empty")
	}
	norm := func(raw string) (string, error) {
		u, err := url.Parse(strings.TrimRight(raw, "/"))
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return "", fmt.Errorf("service: peer URL %q: want http(s)://host[:port]", raw)
		}
		return strings.TrimRight(raw, "/"), nil
	}
	self, err := norm(cfg.SelfURL)
	if err != nil {
		return nil, err
	}
	var peers, others []string
	seen := map[string]bool{}
	selfListed := false
	for _, raw := range cfg.Peers {
		p, err := norm(raw)
		if err != nil {
			return nil, err
		}
		if seen[p] {
			continue
		}
		seen[p] = true
		peers = append(peers, p)
		if p == self {
			selfListed = true
		} else {
			others = append(others, p)
		}
	}
	if !selfListed {
		return nil, fmt.Errorf("service: SelfURL %q is not in Peers %v", self, peers)
	}
	if len(peers) < 2 {
		return nil, nil
	}
	client := cfg.PeerClient
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &cluster{self: self, peers: peers, others: others, client: client}, nil
}

// peerBackend builds the remote tier for one store namespace
// ("results" or "traces"): a Peer over every OTHER member's blob API,
// optionally wrapped (the cluster tests inject blob.Fault here to
// make the wire hostile).
func (c *cluster) peerBackend(store string, wrap func(blob.Backend) blob.Backend) blob.Backend {
	urls := make([]string, len(c.others))
	for i, o := range c.others {
		urls[i] = o + "/v1/blobs/" + store
	}
	var b blob.Backend = storage.NewPeer(c.client, urls)
	if wrap != nil {
		b = wrap(b)
	}
	return b
}

// ownerOf returns the member that owns a cell's compute, by rendezvous
// hash of its content address.
func (c *cluster) ownerOf(hash string) string {
	return storage.Rendezvous(hash, c.peers)[0]
}

// reachable counts members of others answering their blob API within
// timeout (healthz reporting; peer state is informational — a dead
// peer degrades the cluster tier, it does not make this node
// unhealthy).
func (c *cluster) reachable(timeout time.Duration) (up, total int) {
	total = len(c.others)
	for _, o := range c.others {
		//rapwam:allow ctxfirst detached reachability probe: bounded by its own timeout, deliberately independent of any request's lifetime
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		req, err := http.NewRequestWithContext(ctx, http.MethodHead, o+"/v1/blobs/results/", nil)
		if err == nil {
			if resp, err := c.client.Do(req); err == nil {
				resp.Body.Close()
				if resp.StatusCode < 500 {
					up++
				}
			}
		}
		cancel()
	}
	return up, total
}

// localBackend unwraps a Tiered composition to its local tier, so
// health probes measure this node's own storage rather than the
// fleet's.
func localBackend(b blob.Backend) blob.Backend {
	if t, ok := b.(interface{ Local() blob.Backend }); ok {
		return t.Local()
	}
	return b
}

// mergeDegraded unions two degraded-component lists, preserving order
// and deduplicating.
func mergeDegraded(a, b []string) []string {
	out := append([]string(nil), a...)
	for _, c := range b {
		dup := false
		for _, e := range out {
			if e == c {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}

// clusterStatsBody is the /v1/stats cluster section.
type clusterStatsBody struct {
	Self            string               `json:"self"`
	Peers           []string             `json:"peers"`
	ProxiedComputes int64                `json:"proxied_computes"`
	ProxyFallbacks  int64                `json:"proxy_fallbacks"`
	ProxiedServes   int64                `json:"proxied_serves"`
	ResultPeer      *storage.TieredStats `json:"result_peer,omitempty"`
	TracePeer       *storage.TieredStats `json:"trace_peer,omitempty"`
}

// proxyCompute forwards a cold request for key to its owner and
// verifies the result exactly as the cache read path would — a peer's
// word is never trusted over the envelope checks. It returns
// (result, final, error): final=true errors are the owner's verdict
// on the request itself (shed, compute timeout, caller gone) and
// propagate; final=false errors mean "the owner could not help" and
// the caller falls back to computing locally.
func (s *Server) proxyCompute(ctx context.Context, owner string, key CacheKey, h string, ps experiments.Canonical) (flightResult, bool, error) {
	u := owner + "/v1/experiments/" + url.PathEscape(key.Experiment) + "?" + ps.Query().Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return flightResult{}, false, err
	}
	req.Header.Set(proxyHeader, "1")
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return flightResult{}, true, ctx.Err()
		}
		return flightResult{}, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyBody))
		if err != nil {
			if ctx.Err() != nil {
				return flightResult{}, true, ctx.Err()
			}
			return flightResult{}, false, err
		}
		if !verifyEnvelope(key, body) {
			return flightResult{}, false, fmt.Errorf("owner %s served an invalid envelope for %s", owner, key.Experiment)
		}
		// Cache the verified result locally so the next request here is
		// a local hit.
		res := flightResult{ent: s.cacheResult(ctx, key, h, body), src: "proxied"}
		if d := resp.Header.Get("X-Degraded"); d != "" {
			res.degraded = strings.Split(d, ",")
		}
		s.cluster.proxied.Add(1)
		return res, false, nil
	case http.StatusTooManyRequests:
		// The owner is shedding: it is the one entitled to run this
		// compute, so its overload verdict stands — falling back to a
		// local compute would defeat the fleet's load shedding.
		return flightResult{}, true, fmt.Errorf("%w (owner %s shedding)", errShed, owner)
	case http.StatusGatewayTimeout:
		return flightResult{}, true, fmt.Errorf("%w (at owner %s)", errComputeTimeout, owner)
	default:
		return flightResult{}, false, fmt.Errorf("owner %s: status %s", owner, resp.Status)
	}
}
