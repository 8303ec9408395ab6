package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// CtxFirst enforces context discipline below the command layer:
//
//   - an exported function or method taking a context.Context takes it
//     as the first parameter (after the receiver);
//   - context.Background() / context.TODO() do not appear outside
//     package main — a library that manufactures a root context
//     detaches itself from the caller's cancellation, which PR 5
//     threaded end to end;
//   - a loop polling for cancellation consults ctx.Err() or a Done/
//     Cancel channel, not a bool captured before the loop (the stale-
//     flag bug: the 4096-cycle poll pattern keeps running forever if
//     the flag was read once).
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "context.Context comes first, is never manufactured below cmd/, and cancellation polls are live",
	Run:  runCtxFirst,
}

func runCtxFirst(pass *Pass) {
	info := pass.Pkg.Info
	isMain := pass.Pkg.Name == "main"
	funcDecls(pass.Pkg, func(f *ast.File, fd *ast.FuncDecl) {
		checkCtxParamFirst(pass, info, fd)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if !isMain {
					if obj := calleeObject(info, n); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
						if obj.Name() == "Background" || obj.Name() == "TODO" {
							pass.Reportf(n.Pos(), "context.%s below cmd/: a library must inherit its caller's context, not manufacture a root one (cancellation stops here otherwise)", obj.Name())
						}
					}
				}
			case *ast.ForStmt:
				checkStaleCancelFlag(pass, info, fd, n)
			}
			return true
		})
	})
}

// checkCtxParamFirst flags exported functions whose context.Context
// parameter is not the first.
func checkCtxParamFirst(pass *Pass, info *types.Info, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() {
		return
	}
	obj := info.Defs[fd.Name]
	if obj == nil {
		return
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i := 1; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) && !isContextType(params.At(0).Type()) {
			pass.Reportf(fd.Name.Pos(), "exported %s takes context.Context as parameter %d: context comes first, so call sites read uniformly and ctx is never optional", fd.Name.Name, i+1)
			return
		}
	}
}

func isContextType(t types.Type) bool {
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// staleFlagName matches local bool variables that look like captured
// cancellation state.
var staleFlagName = regexp.MustCompile(`(?i)^(done|cancell?ed|stop|stopped|aborted)$`)

// checkStaleCancelFlag flags `for !done { ... }`-style loops in
// functions that have a live context: the loop condition reads a bool
// that nothing in the loop can change, where ctx.Err() (or the Cancel
// channel) would observe cancellation mid-loop.
func checkStaleCancelFlag(pass *Pass, info *types.Info, fd *ast.FuncDecl, loop *ast.ForStmt) {
	if loop.Cond == nil || !funcHasContext(info, fd) {
		return
	}
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || !staleFlagName.MatchString(id.Name) {
			return true
		}
		obj := info.ObjectOf(id)
		if obj == nil || obj.Pos() >= loop.Pos() {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return true
		}
		if basic, ok := v.Type().Underlying().(*types.Basic); !ok || basic.Kind() != types.Bool {
			return true
		}
		if assignedWithin(info, loop.Body, obj) {
			return true // the loop refreshes the flag: a live poll
		}
		pass.Reportf(id.Pos(), "loop condition reads bool %q captured before the loop: cancellation checked once is cancellation ignored; poll ctx.Err() (or the Cancel channel) inside the loop", id.Name)
		return false
	})
}

// funcHasContext reports whether fd has a context.Context parameter.
func funcHasContext(info *types.Info, fd *ast.FuncDecl) bool {
	obj := info.Defs[fd.Name]
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// assignedWithin reports whether obj is assigned anywhere inside body.
func assignedWithin(info *types.Info, body ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return !found
		}
		for _, lhs := range as.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && info.ObjectOf(id) == obj {
				found = true
			}
		}
		return !found
	})
	return found
}
