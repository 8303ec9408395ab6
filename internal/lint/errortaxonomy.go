package lint

import (
	"go/ast"
	"go/types"
)

// ErrorTaxonomy enforces the PR-7 failure taxonomy on storage
// consumers: a function that reads through a blob.Backend (or the
// stores built on one) and can return an error must classify what it
// saw — transient (retry), backend failure (degrade) or neither
// (corruption, quarantine) — before handing the error up. Concretely:
//
//   - os.IsNotExist is flagged everywhere: wrapped backend errors only
//     match through errors.Is(err, fs.ErrNotExist);
//   - a Backend method call whose error result is discarded (blank
//     identifier or bare expression statement) is flagged;
//   - a function that calls fallible Backend methods and returns error
//     without any classification call (blob.IsTransient,
//     blob.AsBackendError, blob.Transient, errors.Is, errors.As)
//     — directly or via a same-package helper — is flagged.
//
// The Backend interface and the classifiers are matched by where they
// are declared: anywhere on or under an internal/storage path
// (pathInScope), so the storage core in internal/storage/blob and any
// later split of it stay covered.
var ErrorTaxonomy = &Analyzer{
	Name: "errortaxonomy",
	Doc:  "storage read paths classify errors (Transient/Degrade/Corrupt) before returning them",
	Run:  runErrorTaxonomy,
}

// fallibleBackendMethods are the Backend methods whose error result
// feeds the taxonomy. Sweep and Name are infallible by contract.
var fallibleBackendMethods = map[string]bool{
	"Put": true, "Get": true, "Stat": true, "List": true, "Delete": true, "Rename": true,
}

// backendReadMethods are the methods whose errors the Transient/
// Degrade/Corrupt classification must gate before they propagate: the
// read paths, where an unclassified error is the difference between
// healing corruption and serving it. Write-path errors arrive already
// wrapped (*blob.Error) and degrade at the caller.
var backendReadMethods = map[string]bool{
	"Get": true, "Stat": true, "List": true,
}

func runErrorTaxonomy(pass *Pass) {
	info := pass.Pkg.Info

	// classifies[fn] — the function's body contains a classification
	// call. Seeded directly, then closed over same-package calls so a
	// helper like wrapOp counts for its callers.
	classifies := make(map[types.Object]bool)
	calls := make(map[types.Object][]types.Object) // caller -> callees (same package)
	var fns []types.Object

	funcDecls(pass.Pkg, func(f *ast.File, fd *ast.FuncDecl) {
		obj := info.Defs[fd.Name]
		if obj == nil {
			return
		}
		fns = append(fns, obj)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if isClassifierCall(info, call) {
				classifies[obj] = true
			}
			if callee := calleeObject(info, call); callee != nil && callee.Pkg() == pass.Pkg.Types {
				calls[obj] = append(calls[obj], callee)
			}
			return true
		})
	})
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if classifies[fn] {
				continue
			}
			for _, callee := range calls[fn] {
				if classifies[callee] {
					classifies[fn] = true
					changed = true
					break
				}
			}
		}
	}

	funcDecls(pass.Pkg, func(f *ast.File, fd *ast.FuncDecl) {
		obj := info.Defs[fd.Name]
		readsBackend := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if isOsIsNotExist(info, n) {
					pass.Reportf(n.Pos(), "os.IsNotExist does not unwrap errors: backend misses travel wrapped, use errors.Is(err, fs.ErrNotExist)")
				}
				if isBackendCall(info, n, backendReadMethods) {
					readsBackend = true
				}
			case *ast.AssignStmt:
				checkDroppedBackendError(pass, info, n)
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok && isBackendCall(info, call, fallibleBackendMethods) {
					pass.Reportf(call.Pos(), "storage backend call's error is discarded: classify it (blob.IsTransient / blob.AsBackendError / errors.Is(err, fs.ErrNotExist)) or handle the failure")
				}
			}
			return true
		})
		if !readsBackend || !returnsError(info, fd) {
			return
		}
		if obj != nil && classifies[obj] {
			return
		}
		if isBackendImplMethod(pass, fd) {
			// A Backend wrapping other Backends (Tiered, Fault)
			// is the storage layer itself: its contract is to surface
			// errors for consumers above the interface to classify.
			return
		}
		pass.Reportf(fd.Name.Pos(), "%s reads through a storage.Backend and returns error without classifying it: route backend errors through blob.IsTransient / blob.AsBackendError / errors.Is(err, fs.ErrNotExist) so transient faults retry, backend faults degrade and corruption quarantines", fd.Name.Name)
	})
}

// isOsIsNotExist matches calls to os.IsNotExist.
func isOsIsNotExist(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObject(info, call)
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "os" && obj.Name() == "IsNotExist"
}

// isBackendCall reports whether call invokes one of the named methods
// through the storage Backend interface (an interface named Backend
// declared in a package on or under an internal/storage path).
func isBackendCall(info *types.Info, call *ast.CallExpr, methods map[string]bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !methods[sel.Sel.Name] {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := types.Unalias(recv).(*types.Named)
	if !ok {
		return false
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Backend" && obj.Pkg() != nil &&
		pathInScope(obj.Pkg().Path(), []string{"internal/storage"})
}

// isClassifierCall matches the taxonomy's classification calls:
// errors.Is / errors.As, and IsTransient / AsBackendError / Transient
// from the storage packages.
func isClassifierCall(info *types.Info, call *ast.CallExpr) bool {
	obj := calleeObject(info, call)
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Pkg().Path() == "errors" && (obj.Name() == "Is" || obj.Name() == "As"):
		return true
	case pathInScope(obj.Pkg().Path(), []string{"internal/storage"}):
		switch obj.Name() {
		case "IsTransient", "AsBackendError", "Transient":
			return true
		}
	}
	return false
}

// isBackendImplMethod reports whether fd is a Backend interface method
// on a type that itself implements storage.Backend.
func isBackendImplMethod(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || !fallibleBackendMethods[fd.Name.Name] {
		return false
	}
	iface := backendInterface(pass.Pkg)
	if iface == nil {
		return false
	}
	obj, ok := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	recv := obj.Type().(*types.Signature).Recv()
	return recv != nil && types.Implements(recv.Type(), iface)
}

// backendInterface resolves the storage Backend interface visible to
// the package (its own scope or a direct import).
func backendInterface(pkg *Package) *types.Interface {
	look := func(p *types.Package) *types.Interface {
		if !pathInScope(p.Path(), []string{"internal/storage"}) {
			return nil
		}
		obj, ok := p.Scope().Lookup("Backend").(*types.TypeName)
		if !ok {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	if i := look(pkg.Types); i != nil {
		return i
	}
	for _, imp := range pkg.Types.Imports() {
		if i := look(imp); i != nil {
			return i
		}
	}
	return nil
}

// checkDroppedBackendError flags assignments that blank out a backend
// call's error result: `data, _ := b.Get(name)`.
func checkDroppedBackendError(pass *Pass, info *types.Info, as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !isBackendCall(info, call, fallibleBackendMethods) {
		return
	}
	last := as.Lhs[len(as.Lhs)-1]
	if id, ok := ast.Unparen(last).(*ast.Ident); ok && id.Name == "_" {
		pass.Reportf(as.Pos(), "storage backend call's error is dropped into _: classify it (blob.IsTransient / blob.AsBackendError / errors.Is(err, fs.ErrNotExist)) or handle the failure")
	}
}

// returnsError reports whether fd's signature includes an error result.
func returnsError(info *types.Info, fd *ast.FuncDecl) bool {
	obj := info.Defs[fd.Name]
	if obj == nil {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := types.Unalias(sig.Results().At(i).Type()).(*types.Named); ok &&
			named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return true
		}
	}
	return false
}
