// Package lint implements rapwamlint, the repo-invariant static
// analyzers behind `make lint` (cmd/rapwamlint). The invariants it
// enforces are the ones the compiler cannot see and the golden test
// suites only catch after the fact:
//
//   - determinism — trace-affecting packages must not consult wall
//     clocks, PRNGs, map iteration order or racy selects (PRs 1/4/6/9:
//     traces are byte-identical across grid widths and restarts);
//   - errortaxonomy — every storage read path classifies errors
//     through the Transient/Degrade/Corrupt taxonomy before returning
//     (PR 7: corruption heals instead of serving plausible 200s);
//   - hotpath — functions marked //rapwam:hotpath stay free of defer,
//     fmt, closures, appends and dynamic dispatch (PR 2/4: the kernels
//     are allocation-free by construction);
//   - ctxfirst — context.Context is the first parameter of exported
//     functions, never manufactured below cmd/, and cancellation is
//     polled live (PR 5: cancellation threaded end to end);
//   - versionbump — the byte layout of trace emission is fingerprinted;
//     changing it without bumping core.EmulatorVersion is a finding
//     (PR 3: stored traces are keyed by emulator version);
//   - globalstate — internal/bench and internal/experiments declare no
//     package-level variables: store, budget, memo and counters live on
//     the bench.Runner passed to every call (PR 13: any number of
//     servers and tests share a process).
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer with a Run func over a type-checked Pass — but is built
// on the standard library only, so linting works in hermetic builds
// with an empty module cache (the loader consumes compiler export data
// via `go list -export`; see Load).
//
// Findings are suppressed, one at a time and with a recorded reason,
// by an annotation on the offending line or the line above:
//
//	//rapwam:allow <analyzer> <reason>
//
// Malformed or unknown-analyzer annotations are themselves findings
// (the annotation analyzer): an escape hatch that cannot be audited is
// a hole, not a hatch.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Exactly one of Run and
// RunRepo is set: Run checks one package at a time; RunRepo sees every
// loaded package at once (versionbump compares a whole-repo
// fingerprint).
type Analyzer struct {
	// Name is the analyzer's identifier, used by -only and in
	// //rapwam:allow annotations.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run reports findings in one package.
	Run func(*Pass)
	// RunRepo reports findings across all loaded packages.
	RunRepo func(*RepoPass)
}

// Pass hands one loaded package to an Analyzer.Run and collects its
// findings.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// RepoPass hands the full package set to an Analyzer.RunRepo.
type RepoPass struct {
	Analyzer *Analyzer
	// Pkgs holds every loaded package, in dependency order.
	Pkgs []*Package
	// ModuleRoot is the analyzed module's root directory (where the
	// checked-in emission fingerprint lives).
	ModuleRoot string
	diags      *[]Diagnostic
}

// Reportf records a finding at pos (resolved through fset).
func (p *RepoPass) Reportf(fset *token.FileSet, pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the violation and the fix.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzers returns the full suite in stable order, annotation checker
// included.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		Annotation,
		Determinism,
		ErrorTaxonomy,
		HotPath,
		CtxFirst,
		VersionBump,
		GlobalState,
	}
}

// ByName resolves one analyzer from Analyzers (nil if unknown).
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Run executes the given analyzers over the loaded packages and
// returns the surviving findings sorted by position: every diagnostic
// covered by a well-formed //rapwam:allow annotation for its analyzer
// on its own line or the line above is suppressed. Annotation
// validity itself is the Annotation analyzer's job and is never
// suppressed by this filter.
func Run(pkgs []*Package, moduleRoot string, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		switch {
		case a.Run != nil:
			for _, pkg := range pkgs {
				a.Run(&Pass{Analyzer: a, Pkg: pkg, diags: &diags})
			}
		case a.RunRepo != nil:
			a.RunRepo(&RepoPass{Analyzer: a, Pkgs: pkgs, ModuleRoot: moduleRoot, diags: &diags})
		}
	}
	allowed := collectAllows(pkgs)
	out := diags[:0]
	for _, d := range diags {
		if d.Analyzer != Annotation.Name && allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// --- shared scoping helpers ---

// pathInScope reports whether an import path falls under one of the
// scope suffixes ("internal/core", ...). Matching by suffix rather
// than full path keeps the analyzers testable against fixture modules
// whose paths end the same way.
func pathInScope(path string, scopes []string) bool {
	for _, s := range scopes {
		if path == s || strings.HasSuffix(path, "/"+s) || strings.Contains(path, "/"+s+"/") {
			return true
		}
	}
	return false
}

// funcDecls yields every function declaration with a body in the
// package, paired with its file.
func funcDecls(pkg *Package, fn func(file *ast.File, decl *ast.FuncDecl)) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(f, fd)
			}
		}
	}
}
