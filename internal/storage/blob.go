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

// BlobHandler serves a blob.Backend over the content-addressed blob
// protocol Peer speaks. Mount it under a namespace root with
// http.StripPrefix, e.g.:
//
//	mux.Handle("/v1/blobs/results/",
//	    http.StripPrefix("/v1/blobs/results/", storage.BlobHandler(local)))
//
// The protocol, relative to the mount point:
//
//	GET    {name}                     object bytes (404 on miss)
//	HEAD   {name}                     size + Last-Modified only
//	PUT    {name}                     atomic create/replace from the body
//	DELETE {name}                     remove (404 on miss)
//	POST   {name}?op=rename&to={new}  atomic rename (quarantining)
//	GET    ?prefix={p}                JSON listing {"objects":[...]}
//	POST   ?op=sweep&older-than={d}   sweep, returns {"removed":n}
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
	name := strings.TrimPrefix(r.URL.Path, "/")
	if name == "" {
		h.serveRoot(w, r)
		return
	}
	if !blob.ValidName(name) {
		http.Error(w, "invalid object name", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		h.serveObject(w, r, name)
	case http.MethodPut:
		h.putObject(w, r, name)
	case http.MethodDelete:
		h.fail(w, h.b.Delete(name))
	case http.MethodPost:
		if r.URL.Query().Get("op") != "rename" {
			http.Error(w, "unknown op", http.StatusBadRequest)
			return
		}
		to := r.URL.Query().Get("to")
		if !blob.ValidName(to) {
			http.Error(w, "invalid rename target", http.StatusBadRequest)
			return
		}
		h.fail(w, h.b.Rename(name, to))
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// serveRoot handles the namespace root: listing and sweep.
func (h *blobHandler) serveRoot(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
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
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodHead {
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"objects": objects})
	case http.MethodPost:
		if r.URL.Query().Get("op") != "sweep" {
			http.Error(w, "unknown op", http.StatusBadRequest)
			return
		}
		olderThan, err := parseOlderThan(r.URL.Query().Get("older-than"))
		if err != nil || olderThan < 0 {
			http.Error(w, "invalid older-than", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]int{"removed": h.b.Sweep(olderThan)})
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
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

// putObject atomically installs the request body as name. The
// backend's own Put makes the commit atomic, so a client that dies
// mid-upload leaves nothing behind.
func (h *blobHandler) putObject(w http.ResponseWriter, r *http.Request, name string) {
	err := h.b.Put(name, func(dst io.Writer) error {
		_, err := io.Copy(dst, r.Body)
		return err
	})
	if err != nil {
		http.Error(w, "put failed: "+err.Error(), http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// fail maps a backend error to a blob-protocol status: nil → 204,
// miss → 404, anything else → 503.
func (h *blobHandler) fail(w http.ResponseWriter, err error) {
	switch {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case errors.Is(err, fs.ErrNotExist):
		http.Error(w, "not found", http.StatusNotFound)
	default:
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	}
}
