package lint

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// determinismScope lists the path suffixes of the trace-affecting
// packages: everything between the emulator's first emitted reference
// and the bytes of an RWT2 file or a replayed statistic. A wall-clock
// read, a PRNG draw or a map-iteration-ordered emission in any of them
// can change stored-trace bytes or replayed stats between two runs of
// the same cell, which the golden parity suites treat as corruption.
var determinismScope = []string{
	"internal/core",
	"internal/mem",
	"internal/trace",
	"internal/cache",
	"internal/experiments",
	"internal/bench",
}

// Determinism flags nondeterminism sources in trace-affecting
// packages: time.Now/time.Since, math/rand, map iteration whose body
// has order-dependent effects (emits, appends or sends), and select
// statements with several ready-biased communication cases.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "trace-affecting packages must not consult clocks, PRNGs, map order or racy selects",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !pathInScope(pass.Pkg.Path, determinismScope) {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in a trace-affecting package: seeded or not, PRNG draws make replay order-sensitive; derive pseudo-random inputs from a counted hash instead", path)
			}
		}
	}
	funcDecls(pass.Pkg, func(f *ast.File, fd *ast.FuncDecl) {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if obj := calleeObject(info, n); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time" {
					if obj.Name() == "Now" || obj.Name() == "Since" {
						pass.Reportf(n.Pos(), "time.%s in a trace-affecting package: wall-clock reads differ across runs; thread timing through the caller or drop it", obj.Name())
					}
				}
			case *ast.RangeStmt:
				checkMapRange(pass, fd, n)
			case *ast.SelectStmt:
				checkSelect(pass, n)
			}
			return true
		})
	})
}

// calleeObject resolves the called function's object, for both
// pkg.Func and expr.Method call forms.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// emitMethodNames are method names whose call inside a map-range body
// marks the iteration as order-dependent: each call appends to some
// ordered stream (a sink, a writer, a table) in map order.
var emitMethodNames = map[string]bool{
	"Add": true, "AddBatch": true, "AddRow": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Encode": true, "Emit": true, "Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// checkMapRange flags `for ... range m` over a map when the loop body
// has order-dependent effects: it sends on a channel, calls an
// emitting method, or appends to a slice declared outside the loop
// that is never subsequently sorted. The collect-then-sort idiom
// (append keys, sort.Strings, iterate sorted) passes — sorting erases
// the iteration order.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt) {
	tv, ok := pass.Pkg.Info.Types[rng.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside map iteration: delivery order follows map order, which differs across runs; collect and sort keys first")
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok && emitMethodNames[sel.Sel.Name] {
				pass.Reportf(n.Pos(), "%s call inside map iteration emits in map order, which differs across runs; collect and sort keys first", sel.Sel.Name)
			}
		case *ast.AssignStmt:
			checkMapRangeAppend(pass, fd, rng, n)
		}
		return true
	})
}

// checkMapRangeAppend flags `outer = append(outer, ...)` in a map-range
// body unless outer is later passed to a sort call in the same
// function.
func checkMapRangeAppend(pass *Pass, fd *ast.FuncDecl, rng *ast.RangeStmt, as *ast.AssignStmt) {
	info := pass.Pkg.Info
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" || info.Uses[id] != nil && info.Uses[id].Pkg() != nil {
			continue
		}
		if i >= len(as.Lhs) {
			continue
		}
		target, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok {
			continue
		}
		obj := info.ObjectOf(target)
		if obj == nil || obj.Pos() >= rng.Pos() {
			continue // declared inside the loop: order is loop-local
		}
		if sortedLater(pass, fd, obj, rng) {
			continue
		}
		pass.Reportf(as.Pos(), "append to %q inside map iteration accumulates in map order, which differs across runs; sort it afterwards or collect and sort keys first", target.Name)
	}
}

// sortedLater reports whether obj is passed to a recognized sorting
// call after the range statement within fd.
func sortedLater(pass *Pass, fd *ast.FuncDecl, obj types.Object, rng *ast.RangeStmt) bool {
	info := pass.Pkg.Info
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return !found
		}
		sorts := false
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			// Any call into sort or slices counts (sort.Strings,
			// sort.Slice, slices.SortFunc, ...): those packages exist to
			// impose order.
			if base, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
				if pkg, ok := info.Uses[base].(*types.PkgName); ok {
					p := pkg.Imported().Path()
					sorts = p == "sort" || p == "slices"
				}
			}
		case *ast.Ident:
			// A local helper counts when its name says so (sortRows...).
			sorts = strings.HasPrefix(strings.ToLower(fun.Name), "sort")
		}
		if !sorts {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok && info.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkSelect flags selects with two or more communication cases:
// when several cases are ready, the runtime picks uniformly at random,
// so any trace-affecting effect ordered by the select is
// nondeterministic. A single comm case (with or without default) is
// the deterministic poll idiom and passes.
func checkSelect(pass *Pass, sel *ast.SelectStmt) {
	comm := 0
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	if comm >= 2 {
		pass.Reportf(sel.Pos(), "select with %d communication cases: the runtime breaks ties randomly, so downstream effects are order-nondeterministic; split the cases or impose an explicit priority", comm)
	}
}
