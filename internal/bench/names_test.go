package bench

import (
	"context"
	"testing"
)

// TestByNameCoversAllRunnable enumerates every benchmark name the CLIs
// (cmd/rapwam -bench, cmd/cachesim -bench, cmd/tracegen) accept and
// checks that ByName resolves each to a benchmark carrying exactly that
// name — so a stored trace keyed by name always round-trips back to
// the same workload.
func TestByNameCoversAllRunnable(t *testing.T) {
	names := Names()
	// Parameterized variants of every suite (the Large suite's sized
	// variants were silently unresolvable before ByName learned them).
	names = append(names,
		"deriv-d0", "deriv-d4", "deriv-d16",
		"deriv-8", "deriv-512",
		"qsort-10", "qsort-20000",
		"matrix-2", "matrix-32",
		"nrev-1", "nrev-50", "nrev-5000",
		"queens-4", "queens-6", "queens-12",
		"primes-2", "primes-100", "primes-100000",
	)
	seen := make(map[string]bool)
	for _, name := range names {
		if seen[name] {
			t.Errorf("duplicate name %q", name)
		}
		seen[name] = true
		b, ok := ByName(name)
		if !ok {
			t.Errorf("ByName(%q) does not resolve", name)
			continue
		}
		if b.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, b.Name)
		}
		if b.Source == "" || b.Query == "" {
			t.Errorf("ByName(%q) returned an empty benchmark", name)
		}
	}
}

// TestNamesComplete pins Names to the full fixed suite.
func TestNamesComplete(t *testing.T) {
	want := []string{"deriv", "tak", "qsort", "matrix", "nrev", "queens", "primes", "zebra", "deriv-checked"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestByNameRejectsMalformed checks the strict parsing: names that the
// old Sscanf-based lookup would have mis-resolved must not resolve.
func TestByNameRejectsMalformed(t *testing.T) {
	for _, name := range []string{
		"deriv-d3x", "deriv-d-1", "deriv-d17", "deriv-dd3",
		"nrev-", "nrev-0", "nrev-50x", "nrev-05", "nrev--5", "nrev-5001",
		"queens-3", "queens-13", "primes-1", "qsort-0", "matrix-33",
		"unknown", "qsort2", "-5", "deriv-",
	} {
		if b, ok := ByName(name); ok {
			t.Errorf("ByName(%q) resolved to %q, want rejection", name, b.Name)
		}
	}
}

// TestSizedVariantsRun executes one small instance of each sized
// variant end to end (answer checks included), so the parameterized
// path is exercised, not just parsed.
func TestSizedVariantsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, name := range []string{"nrev-30", "queens-5", "primes-50", "qsort-40", "matrix-3", "deriv-4", "deriv-d1"} {
		b, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) does not resolve", name)
		}
		if _, err := new(Runner).Run(context.Background(), b, RunConfig{PEs: 2}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestKnownAgreesWithByName: the name-only check the request paths
// validate with accepts exactly what ByName resolves — every fixed
// name, each sized variant at and just past its bounds, and malformed
// names — and builds no program text, so it allocates nothing for a
// fixed name.
func TestKnownAgreesWithByName(t *testing.T) {
	names := append(Names(),
		"deriv-d0", "deriv-d16", "deriv-d17", "deriv-d", "deriv-d3x", "deriv-d-1", "deriv-dd3", "deriv-d016",
		"deriv-1", "deriv-512", "deriv-513", "deriv-0",
		"qsort-1", "qsort-20000", "qsort-20001", "qsort-0",
		"matrix-1", "matrix-32", "matrix-33",
		"nrev-1", "nrev-5000", "nrev-5001", "nrev-05", "nrev-50x", "nrev--5", "nrev-+5",
		"queens-3", "queens-4", "queens-12", "queens-13",
		"primes-1", "primes-2", "primes-100000", "primes-100001", "primes-1048577",
		"tak-5", "zebra-3", "deriv-checked-1", "qsort-", "-5", "-", "", "unknown", "qsort2", "QSORT",
	)
	for _, name := range names {
		_, want := ByName(name)
		if got := Known(name); got != want {
			t.Errorf("Known(%q) = %v, ByName resolves it: %v", name, got, want)
		}
	}
	if a := testing.AllocsPerRun(20, func() { Known("qsort") }); a != 0 {
		t.Errorf("Known(\"qsort\") allocates %.0f times, want 0", a)
	}
}
