package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathMarker tags a function as an allocation-free kernel: the mem
// reference path, the cache replay loops, the RWT2 encode/decode
// loops and the quantum dispatcher. The marker is a contract —
// the analyzer enforces what the benchmarks' AllocsPerRun==0
// regressions only measure.
const HotPathMarker = "//rapwam:hotpath"

// HotPath checks functions marked //rapwam:hotpath for constructs that
// allocate, dispatch dynamically or defeat inlining on the per-
// reference path: defer, fmt.* calls, closures, appends and interface
// method calls.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc:  "functions marked //rapwam:hotpath stay free of defer, fmt, closures, appends and dynamic dispatch",
	Run:  runHotPath,
}

func runHotPath(pass *Pass) {
	info := pass.Pkg.Info
	funcDecls(pass.Pkg, func(f *ast.File, fd *ast.FuncDecl) {
		if !hasHotPathMarker(fd) {
			return
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.DeferStmt:
				pass.Reportf(n.Pos(), "defer in //rapwam:hotpath function %s: a deferred call costs a frame record per invocation; restructure with explicit calls", fd.Name.Name)
			case *ast.FuncLit:
				pass.Reportf(n.Pos(), "closure in //rapwam:hotpath function %s: captured variables escape to the heap; hoist the function or pass state explicitly", fd.Name.Name)
				return false // the literal's body is not the hot path
			case *ast.CallExpr:
				checkHotPathCall(pass, info, fd, n)
			}
			return true
		})
	})
}

func checkHotPathCall(pass *Pass, info *types.Info, fd *ast.FuncDecl, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
			pass.Reportf(call.Pos(), "append in //rapwam:hotpath function %s: growth reallocates on the per-reference path; use a preallocated fixed buffer with an index", fd.Name.Name)
			return
		}
	}
	obj := calleeObject(info, call)
	if obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(), "fmt.%s in //rapwam:hotpath function %s: fmt allocates and reflects; format off the hot path", obj.Name(), fd.Name.Name)
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv()) {
				pass.Reportf(call.Pos(), "interface method call %s.%s in //rapwam:hotpath function %s: dynamic dispatch defeats inlining and may allocate; devirtualize (type-switch to concrete kernels) off the hot path", typeShortName(s.Recv()), sel.Sel.Name, fd.Name.Name)
			}
		}
	}
}

// hasHotPathMarker reports whether the declaration's doc comment
// carries the //rapwam:hotpath marker.
func hasHotPathMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(c.Text)
		if text == HotPathMarker || strings.HasPrefix(text, HotPathMarker+" ") {
			return true
		}
	}
	return false
}

func typeShortName(t types.Type) string {
	s := types.TypeString(t, func(p *types.Package) string { return p.Name() })
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	return s
}
