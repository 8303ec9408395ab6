package service

import (
	"bytes"
	"io"
	"maps"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/storage/blob"
	"repro/internal/storage/blob/storagetest"
)

// do sends one request and returns its status and Allow header.
func do(t *testing.T, method, u, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, u, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, u, err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get("Allow")
}

// snapshot maps every object of b, quarantined ones included, to its
// bytes.
func snapshot(t *testing.T, b blob.Backend) map[string]string {
	t.Helper()
	objs := map[string]string{}
	for _, prefix := range []string{"", blob.QuarantinePrefix} {
		names, err := b.List(prefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			objs[n] = storagetest.Get(t, b, n)
		}
	}
	return objs
}

// TestBlobAPIIsReadOnly: the blob API serves reads only, on a solo
// daemon (a one-member fleet: a peer list of itself alone forms no
// cluster) and on every member of a two-node cluster. Each write
// method answers 405 on both namespaces and leaves the node's stores
// as they were, and a well-formed envelope offered for a cell before
// its first request is never served: the request computes the true
// result.
func TestBlobAPIIsReadOnly(t *testing.T) {
	// The true table1 body, from a daemon nobody wrote to.
	want := getOK(t, newTestServer(t).Handler(), "/v1/experiments/table1").Body.Bytes()
	for _, topo := range []struct {
		name  string
		nodes int
	}{{"solo", 1}, {"cluster", 2}} {
		t.Run(topo.name+"/writes", func(t *testing.T) {
			nodes := newTestFleet(t, topo.nodes, nil).nodes
			for _, nd := range nodes {
				for _, b := range []blob.Backend{nd.result, nd.trace} {
					storagetest.Put(t, b, "seed.bin", "seeded")
					storagetest.Put(t, b, blob.QuarantinePrefix+"old.bin", "quarantined")
				}
			}
			before := make([][2]map[string]string, len(nodes))
			for i, nd := range nodes {
				before[i] = [2]map[string]string{snapshot(t, nd.result), snapshot(t, nd.trace)}
			}
			for _, nd := range nodes {
				for _, ns := range []string{"results", "traces"} {
					base := nd.url + "/v1/blobs/" + ns + "/"
					for _, w := range []struct{ method, path string }{
						{http.MethodPut, "seed.bin"},
						{http.MethodPut, "new.bin"},
						{http.MethodDelete, "seed.bin"},
						{http.MethodPost, "seed.bin?op=rename&to=" + url.QueryEscape(blob.QuarantinePrefix+"seed.bin")},
						{http.MethodPost, "?op=sweep&older-than=0"},
					} {
						code, allow := do(t, w.method, base+w.path, "forged")
						if code != http.StatusMethodNotAllowed || allow != "GET, HEAD" {
							t.Errorf("%s %s: status %d, Allow %q; want 405, \"GET, HEAD\"", w.method, base+w.path, code, allow)
						}
					}
					for _, path := range []string{"seed.bin", ""} {
						if code, _ := do(t, http.MethodGet, base+path, ""); code != http.StatusOK {
							t.Errorf("GET %s: status %d, want 200", base+path, code)
						}
					}
				}
			}
			for i, nd := range nodes {
				after := [2]map[string]string{snapshot(t, nd.result), snapshot(t, nd.trace)}
				for j, ns := range []string{"results", "traces"} {
					if !maps.Equal(before[i][j], after[j]) {
						t.Errorf("node%d %s: stores %v before the writes, %v after", i, ns, before[i][j], after[j])
					}
				}
			}
		})
		t.Run(topo.name+"/forged-envelope", func(t *testing.T) {
			f := newTestFleet(t, topo.nodes, nil)
			exp, _ := f.nodes[0].srv.suite.Lookup("table1")
			ps, _, err := exp.Prepare(url.Values{})
			if err != nil {
				t.Fatal(err)
			}
			key := CacheKey{Experiment: "table1", Params: ps.String()}
			forged, err := marshalEnvelope("table1", ps, exp.Fresh())
			if err != nil {
				t.Fatal(err)
			}
			if !verifyEnvelope(key, forged) || bytes.Equal(forged, want) {
				t.Fatal("the forgery must be a well-formed envelope with a wrong result")
			}
			// Offer it to the node that computes the cell, then ask that
			// node for the cell.
			owner := f.owner(key)
			if code, _ := do(t, http.MethodPut, f.nodes[owner].url+"/v1/blobs/results/"+key.name(), string(forged)); code != http.StatusMethodNotAllowed {
				t.Errorf("PUT of the forged envelope: status %d, want 405", code)
			}
			resp, body := f.get(owner, "/v1/experiments/table1")
			if src := resp.Header.Get("X-Result-Source"); resp.StatusCode != http.StatusOK || src != "computed" {
				t.Errorf("GET table1: status %d from %q, want 200 computed", resp.StatusCode, src)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("GET table1 served %d bytes that are not the true result", len(body))
			}
		})
	}
}
