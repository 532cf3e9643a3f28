package analysis

import (
	"go/ast"
	"go/types"
)

// distPkgPath is the package whose collective handles mustwait tracks.
const distPkgPath = "repro/internal/dist"

// MustWait enforces the dist one-call contract: a locally created
// *dist.Handle (Group.Do is the only constructor) must reach Wait —
// directly, or stored as another Collective's After — or escape the
// function, on every path. The runtime backstop fails abandoned handles
// with ErrAborted only at rank exit; this catches the drop — including
// a forgotten Wait on a would-be synchronous call — at compile time.
var MustWait = &Analyzer{
	Name: "mustwait",
	Doc:  "a locally created dist collective handle must reach Wait/After or escape on every path",
	Run: func(pass *Pass) {
		checkPairs(pass, []*pairSpec{{
			resource: "dist collective handle",
			verb:     "Wait",
			acquireCall: func(pass *Pass, call *ast.CallExpr) bool {
				return returnsHandle(pass, call)
			},
			isRelease: func(pass *Pass, call *ast.CallExpr, v *types.Var) bool {
				return isMethodOnVar(pass, call, v, "Wait")
			},
			argConsumes: true,
		}})
	},
}

// returnsHandle reports whether the call's (single) result is a
// *dist.Handle.
func returnsHandle(pass *Pass, call *ast.CallExpr) bool {
	tv, ok := pass.Info.Types[call]
	if !ok {
		return false
	}
	return isPtrToNamed(tv.Type, distPkgPath, "Handle")
}

// isPtrToNamed reports whether t is *pkgPath.Name.
func isPtrToNamed(t types.Type, pkgPath, name string) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isMethodOnVar reports whether call is v.<method>(...).
func isMethodOnVar(pass *Pass, call *ast.CallExpr, v *types.Var, method string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	obj := pass.Info.Uses[id]
	return obj == v
}
