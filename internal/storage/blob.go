package storage

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/storage/blob"
)

// blobInfo is one entry in a blob listing.
type blobInfo struct {
	Name    string    `json:"name"`
	Size    int64     `json:"size"`
	ModTime time.Time `json:"mod_time"`
}

// BlobHandler serves a blob.Backend read-only over the
// content-addressed blob protocol Peer speaks. Mount it under a
// namespace root with http.StripPrefix, e.g.:
//
//	mux.Handle("/v1/blobs/results/",
//	    http.StripPrefix("/v1/blobs/results/", storage.BlobHandler(local)))
//
// The protocol, relative to the mount point:
//
//	GET  {name}        object bytes (404 on miss)
//	HEAD {name}        size + Last-Modified only
//	GET  ?prefix={p}   JSON listing {"objects":[...]}
//	HEAD               headers only; lists nothing
//
// Every other method is 405 with "Allow: GET, HEAD": no client can
// write, delete, rename or sweep a node's objects, which change only
// through the node's own stores. The routes are unauthenticated, and
// nothing they serve is secret.
//
// Serve the node's LOCAL backend here, never a Tiered or Peer wrapper:
// a node answering blob requests out of its own peer fetcher would
// bounce misses around the cluster. Misses map to 404, invalid names
// to 400, and every backend failure to 503 — the remote taxonomy Peer
// folds back into blob.TransientError on the client side.
func BlobHandler(b blob.Backend) http.Handler {
	return &blobHandler{b: b}
}

type blobHandler struct {
	b blob.Backend
}

func (h *blobHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	name := strings.TrimPrefix(r.URL.Path, "/")
	if name == "" {
		h.serveList(w, r)
		return
	}
	if !blob.ValidName(name) {
		http.Error(w, "invalid object name", http.StatusBadRequest)
		return
	}
	h.serveObject(w, r, name)
}

// serveList answers the namespace root. HEAD is the cluster's
// reachability probe, so it answers with the headers alone and lists
// nothing.
func (h *blobHandler) serveList(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if r.Method == http.MethodHead {
		return
	}
	names, err := h.b.List(r.URL.Query().Get("prefix"))
	if err != nil {
		http.Error(w, "list failed: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	objects := make([]blobInfo, 0, len(names))
	for _, n := range names {
		info, err := h.b.Stat(n)
		if err != nil {
			continue // deleted between List and Stat
		}
		objects = append(objects, blobInfo{Name: n, Size: info.Size, ModTime: info.ModTime})
	}
	json.NewEncoder(w).Encode(map[string]any{"objects": objects})
}

// serveObject streams one object. Content-Length comes from Stat, so a
// client can detect truncated transfers; the small stat→get race on a
// concurrently-replaced object surfaces client-side as a length
// mismatch, which Peer classifies transient — the retry then sees a
// consistent object.
func (h *blobHandler) serveObject(w http.ResponseWriter, r *http.Request, name string) {
	info, err := h.b.Stat(name)
	if err != nil {
		h.fail(w, err)
		return
	}
	var rc io.ReadCloser
	if r.Method == http.MethodGet {
		if rc, err = h.b.Get(name); err != nil {
			h.fail(w, err)
			return
		}
		defer rc.Close()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(info.Size, 10))
	w.Header().Set("Last-Modified", info.ModTime.UTC().Format(http.TimeFormat))
	if rc != nil {
		io.Copy(w, rc) // too late for a status on error; the length mismatch tells the client
	}
}

// fail maps a backend error to a blob-protocol status: miss → 404,
// anything else → 503.
func (h *blobHandler) fail(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		http.Error(w, "not found", http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
}
