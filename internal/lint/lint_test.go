package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

// TestDeterminismFixture checks every determinism rule against the
// fixture's want-comments: clock reads, PRNG imports, order-dependent
// map iteration and racy selects are findings; the collect-then-sort
// idiom, single-comm-case polls, out-of-scope packages and annotated
// lines are not.
func TestDeterminismFixture(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "determinism"), lint.Determinism)
}

// TestDeterminismFailsOnTimeNow is the acceptance check in its
// narrowest form: a fixture package whose import path ends in
// internal/core and whose body calls time.Now() must fail the lint
// run.
func TestDeterminismFailsOnTimeNow(t *testing.T) {
	pkgs, root := loadFixture(t, "determinism")
	diags := lint.Run(pkgs, root, []*lint.Analyzer{lint.Determinism})
	for _, d := range diags {
		if strings.Contains(d.Message, "time.Now") {
			return
		}
	}
	t.Fatalf("no time.Now finding in a determinism-scoped fixture; got %d diagnostics", len(diags))
}

func TestErrorTaxonomyFixture(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "errortaxonomy"), lint.ErrorTaxonomy)
}

func TestHotPathFixture(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "hotpath"), lint.HotPath)
}

func TestCtxFirstFixture(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "ctxfirst"), lint.CtxFirst)
}

// TestGlobalStateFixture: every package-level variable in a fixture
// package whose path ends in internal/bench or internal/experiments is
// a finding, whatever its type; blank assertions, constants, struct
// fields, locals, annotated sentinels and out-of-scope packages are
// not.
func TestGlobalStateFixture(t *testing.T) {
	linttest.Run(t, filepath.Join("testdata", "globalstate"), lint.GlobalState)
}

// TestAnnotationFixture asserts directly (want-comments on annotation
// lines would themselves be parsed as annotation text): malformed and
// unknown-analyzer annotations are reported, and none of them
// suppresses the determinism finding sitting next to it — only the
// one well-formed annotation does.
func TestAnnotationFixture(t *testing.T) {
	pkgs, root := loadFixture(t, "annotation")
	diags := lint.Run(pkgs, root, lint.Analyzers())

	var annot, det []lint.Diagnostic
	for _, d := range diags {
		switch d.Analyzer {
		case "annotation":
			annot = append(annot, d)
		case "determinism":
			det = append(det, d)
		}
	}
	wantAnnot := []string{
		"missing analyzer name and reason",
		"missing reason",
		`unknown analyzer "determinizm"`,
	}
	if len(annot) != len(wantAnnot) {
		t.Fatalf("annotation findings = %d, want %d: %v", len(annot), len(wantAnnot), annot)
	}
	for i, want := range wantAnnot {
		if !strings.Contains(annot[i].Message, want) {
			t.Errorf("annotation finding %d = %q, want substring %q", i, annot[i].Message, want)
		}
	}
	// Three bad annotations suppress nothing; the one good annotation
	// suppresses its clock read: 4 time.Now calls, 3 findings.
	if len(det) != 3 {
		t.Fatalf("determinism findings = %d, want 3 (malformed annotations must not suppress): %v", len(det), det)
	}
}

// TestVersionBump drives the fingerprint three-state logic against the
// versionbump fixture: a missing file, a matching file, a shape drift
// without a version bump, and a stale recorded version.
func TestVersionBump(t *testing.T) {
	pkgs, _ := loadFixture(t, "versionbump")
	fp, ok := lint.ComputeFingerprint(pkgs)
	if !ok {
		t.Fatal("fixture's trace/core packages not recognized")
	}
	if fp.EmulatorVersion != "fix1" {
		t.Fatalf("EmulatorVersion = %q, want fix1", fp.EmulatorVersion)
	}

	run := func(t *testing.T, contents string) []lint.Diagnostic {
		t.Helper()
		root := t.TempDir()
		if contents != "" {
			path := filepath.Join(root, filepath.FromSlash(lint.FingerprintPath))
			if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(contents), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return lint.Run(pkgs, root, []*lint.Analyzer{lint.VersionBump})
	}

	t.Run("missing file", func(t *testing.T) {
		diags := run(t, "")
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "no checked-in emission fingerprint") {
			t.Fatalf("diags = %v, want one missing-fingerprint finding", diags)
		}
	})
	t.Run("clean", func(t *testing.T) {
		if diags := run(t, lint.FingerprintFile(fp)); len(diags) != 0 {
			t.Fatalf("diags = %v, want none", diags)
		}
	})
	t.Run("shapes drift without bump", func(t *testing.T) {
		tampered := strings.Replace(lint.FingerprintFile(fp), fp.SHA, strings.Repeat("0", 64), 1)
		diags := run(t, tampered)
		if len(diags) != 1 || !strings.Contains(diags[0].Message, "core.EmulatorVersion is still") {
			t.Fatalf("diags = %v, want one shapes-changed finding", diags)
		}
	})
	t.Run("stale recorded version", func(t *testing.T) {
		stale := strings.Replace(lint.FingerprintFile(fp), "version: fix1", "version: fix0", 1)
		diags := run(t, stale)
		if len(diags) != 1 || !strings.Contains(diags[0].Message, `records version "fix0"`) {
			t.Fatalf("diags = %v, want one stale-fingerprint finding", diags)
		}
	})
}

// TestRepoIsClean dogfoods the whole suite over the real repository:
// the invariants hold, every escape hatch carries a reason, and the
// checked-in emission fingerprint matches the current shapes. A
// failure here is the same failure `make lint` and CI report.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-repo lint run in -short mode")
	}
	pkgs, root, err := lint.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading repo: %v", err)
	}
	diags := lint.Run(pkgs, root, lint.Analyzers())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// loadFixture loads one fixture module under testdata.
func loadFixture(t *testing.T, name string) ([]*lint.Package, string) {
	t.Helper()
	pkgs, root, err := lint.Load(filepath.Join("testdata", name), "./...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkgs, root
}
