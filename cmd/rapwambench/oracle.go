package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro"
)

// The correctness oracle. expected.json pins, per emulator version,
// the SHA-256 of every deterministic output the workloads produce and
// the exact simulated counts of the seed-1 cells. Every observation is
// also checked against the first observation of the same key in this
// run, which is what holds other seeds (whose sized cells have no
// pinned entry) to cross-phase identity.

//go:embed expected.json
var expectedJSON []byte

type pinned struct {
	Digests map[string]string `json:"digests"`
	Counts  map[string]int64  `json:"counts"`
}

type oracle struct {
	mu     sync.Mutex
	pin    pinned // this emulator version's entry
	seen   pinned
	update bool
	path   string
}

func loadOracle(root string, update bool) (*oracle, error) {
	all := map[string]pinned{}
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return &oracle{
		pin:    all[rapwam.EmulatorVersion()],
		seen:   pinned{Digests: map[string]string{}, Counts: map[string]int64{}},
		update: update,
		path:   filepath.Join(root, "cmd", "rapwambench", "expected.json"),
	}, nil
}

// digest checks data under key; a mismatch is a failed operation.
func (e *env) digest(key string, data []byte) {
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	o := e.oracle
	o.mu.Lock()
	first, again := o.seen.Digests[key]
	if !again {
		o.seen.Digests[key] = got
	}
	want, isPinned := o.pin.Digests[key]
	o.mu.Unlock()
	switch {
	case again && first != got:
		e.fail("%s: output differs within this run: sha256 %s, earlier %s", key, got, first)
	case isPinned && !o.update && want != got:
		e.fail("%s: sha256 %s, expected.json pins %s", key, got, want)
	}
}

// count checks an exact simulated quantity under key.
func (e *env) count(key string, got int64) {
	o := e.oracle
	o.mu.Lock()
	first, again := o.seen.Counts[key]
	if !again {
		o.seen.Counts[key] = got
	}
	want, isPinned := o.pin.Counts[key]
	o.mu.Unlock()
	switch {
	case again && first != got:
		e.fail("%s: count differs within this run: %d, earlier %d", key, got, first)
	case isPinned && !o.update && want != got:
		e.fail("%s: %d, expected.json pins %d", key, got, want)
	}
}

// finish rewrites expected.json on an -update-expected run: this
// run's observations replace the pinned values of the same keys under
// the current emulator version, and other keys and versions stay.
func (o *oracle) finish() error {
	if !o.update {
		return nil
	}
	all := map[string]pinned{}
	data, err := os.ReadFile(o.path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &all); err != nil {
		return fmt.Errorf("%s: %w", o.path, err)
	}
	cur := all[rapwam.EmulatorVersion()]
	if cur.Digests == nil {
		cur.Digests = map[string]string{}
	}
	if cur.Counts == nil {
		cur.Counts = map[string]int64{}
	}
	for k, v := range o.seen.Digests {
		cur.Digests[k] = v
	}
	for k, v := range o.seen.Counts {
		cur.Counts[k] = v
	}
	all[rapwam.EmulatorVersion()] = cur
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.path, append(out, '\n'), 0o644)
}
