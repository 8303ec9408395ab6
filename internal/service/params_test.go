package service

import (
	"errors"
	"math"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// The /v1 parameter contract: each request's query goes through its
// registry entry's Prepare, and the canonical parameters it returns are
// both the result cache key and the query a proxied compute sends the
// owner.

// suiteEntry finds a registry entry, failing the test when it is absent.
func suiteEntry(t testing.TB, name string) *experiments.Experiment {
	t.Helper()
	e, ok := experiments.Registry().Lookup(name)
	if !ok {
		t.Fatalf("experiment %q missing from registry", name)
	}
	return e
}

// TestNonFiniteFloatParamsNameTheField: NaN and ±Inf are refused at the
// boundary with the offending field named.
func TestNonFiniteFloatParamsNameTheField(t *testing.T) {
	for _, tc := range []struct{ exp, field, raw string }{
		{"mlips", "target", "target=NaN"},
		{"mlips", "target", "target=Inf"},
		{"mlips", "target", "target=-Inf"},
		{"bus", "bw", "bw=Inf"},
		{"bus", "bw", "bw=NaN"},
		{"bus", "bw", "bw=1e400"},
	} {
		q, _ := url.ParseQuery(tc.raw)
		_, _, err := suiteEntry(t, tc.exp).Prepare(q)
		var pe *experiments.ParamError
		if !errors.As(err, &pe) || pe.Param != tc.field || !strings.Contains(err.Error(), "parameter "+tc.field+"=") || !strings.Contains(err.Error(), "finite") {
			t.Errorf("%s?%s: error %v, want one naming %s as not finite positive", tc.exp, tc.raw, err, tc.field)
		}
	}
}

// FuzzPrepareParams drives every registry entry's parameter parsing
// with arbitrary queries (never the computation): Prepare must not
// panic, an accepted query's canonical parameters hold no NaN/Inf, and
// canonicalization is idempotent over the wire — re-preparing the query
// a proxied compute sends (Canonical.Query) yields the same cache key.
func FuzzPrepareParams(f *testing.F) {
	reg := experiments.Registry()
	index := func(name string) uint8 {
		for i, e := range reg {
			if e.Name == name {
				return uint8(i)
			}
		}
		f.Fatalf("experiment %q missing from registry", name)
		return 0
	}
	for i, e := range reg {
		f.Add(uint8(i), "")
		defaults := url.Values{}
		for _, p := range e.Params {
			if p.Default != "" {
				defaults.Set(p.Name, p.Default)
			}
		}
		f.Add(uint8(i), defaults.Encode())
	}
	f.Add(index("mlips"), "target=NaN")
	f.Add(index("mlips"), "target=Inf")
	f.Add(index("bus"), "bw=Inf&pes=2&cache=64")
	f.Add(index("bus"), "bw=NaN&pes=2&cache=64")
	// 1e21 canonicalizes to "1e+21", whose '+' a raw query would decode
	// as a space.
	f.Add(index("mlips"), "target=1e21")
	f.Fuzz(func(t *testing.T, idx uint8, raw string) {
		e := reg[int(idx)%len(reg)]
		q, _ := url.ParseQuery(raw) // as r.URL.Query(): malformed pairs drop
		ps, _, err := e.Prepare(q)
		if err != nil {
			return
		}
		for _, p := range ps {
			for _, tok := range strings.Split(p.Value, ",") {
				if x, err := strconv.ParseFloat(tok, 64); err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
					t.Fatalf("%s?%s: accepted non-finite %s=%s", e.Name, raw, p.Name, p.Value)
				}
			}
		}
		key := ps.String()
		again, err := url.ParseQuery(ps.Query().Encode())
		if err != nil {
			t.Fatalf("%s: canonical query %q does not parse: %v", e.Name, key, err)
		}
		ps2, _, err := e.Prepare(again)
		if err != nil {
			t.Fatalf("%s?%s: canonical params %q rejected on re-prepare: %v", e.Name, raw, key, err)
		}
		if got := ps2.String(); got != key {
			t.Fatalf("%s?%s: canonicalization not idempotent: %q then %q", e.Name, raw, key, got)
		}
	})
}
