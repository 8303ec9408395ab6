package lint

import (
	"go/ast"
	"go/token"
)

// globalStateScope lists the path suffixes of the packages whose state
// lives on the bench.Runner handed to every call. They once kept it in
// ten package-level atomics and sync.Maps behind Set*/Reset*
// functions, which forced one server per process and serialized tests
// on cleanup; the rule keeps that from growing back.
var globalStateScope = []string{
	"internal/bench",
	"internal/experiments",
}

// GlobalState flags every package-level variable in the Runner-owned
// packages. Any `var` is reassignable and anything reachable from it is
// shared by every caller in the process, whatever its type — atomics,
// sync primitives, pointers, maps, slices, funcs and plain scalars
// alike — so there is no safe kind to let through: read-only scalars
// are spelled `const`, and a value that is never written after
// initialization (a sentinel error, a lookup table) carries a
// //rapwam:allow globalstate annotation saying so. Blank-identifier
// declarations (compile-time interface assertions) hold no state and
// pass.
var GlobalState = &Analyzer{
	Name: "globalstate",
	Doc:  "internal/bench and internal/experiments keep no package-level variables; shared state lives on bench.Runner",
	Run:  runGlobalState,
}

func runGlobalState(pass *Pass) {
	if !pathInScope(pass.Pkg.Path, globalStateScope) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, name := range spec.(*ast.ValueSpec).Names {
					if name.Name == "_" {
						continue
					}
					pass.Reportf(name.Pos(), "package-level variable %s (%s): state shared through package scope is ambient to every caller in the process; move it onto bench.Runner, make it a const, or mark a never-reassigned value //rapwam:allow globalstate <reason>",
						name.Name, typeShortName(pass.Pkg.Info.Defs[name].Type()))
				}
			}
		}
	}
}
