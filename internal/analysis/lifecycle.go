package analysis

import (
	"go/ast"
	"go/types"
)

// Lifecycle enforces the repo's acquire/release pairings on
// function-local resources: a dataload batch taken from a loader's
// Epoch/EpochN stream must be Recycled (or escape) before its
// iteration ends — a leaked batch starves the pool the PR 5 double-put
// guard protects — and an nn arena from either constructor
// (NewTrainCtx, NewInferCtx) must be Released before the function
// exits, or escape: a model that stores its arena in a field owns it.
// The pairs are configured in lifecyclePairs; new pooled resources join
// the gate by adding a row.
var Lifecycle = &Analyzer{
	Name: "lifecycle",
	Doc:  "pooled/arena resources (loader batches, nn arenas) must be released or escape on every path",
	Run: func(pass *Pass) {
		checkPairs(pass, lifecyclePairs())
	},
}

// lifecyclePairs returns the configured acquire/release pairs.
func lifecyclePairs() []*pairSpec {
	return []*pairSpec{
		{
			resource: "loader batch",
			verb:     "Recycle",
			acquireRange: func(pass *Pass, call *ast.CallExpr) bool {
				return isMethodCallOn(pass, call, "repro/internal/dataload", "Loader", "Epoch") ||
					isMethodCallOn(pass, call, "repro/internal/dataload", "Loader", "EpochN")
			},
			isRelease: func(pass *Pass, call *ast.CallExpr, v *types.Var) bool {
				return isArgOfMethod(pass, call, v, "repro/internal/dataload", "Loader", "Recycle")
			},
		},
		{
			resource: "activation arena",
			verb:     "Release",
			acquireCall: func(pass *Pass, call *ast.CallExpr) bool {
				return isFuncCall(pass, call, "repro/internal/nn", "NewInferCtx") ||
					isFuncCall(pass, call, "repro/internal/nn", "NewTrainCtx")
			},
			isRelease: func(pass *Pass, call *ast.CallExpr, v *types.Var) bool {
				return isMethodOnVar(pass, call, v, "Release")
			},
		},
	}
}

// callee resolves a call's target to its *types.Func, through method
// selections.
func callee(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

// isFuncCall reports whether call invokes pkgPath.name (a plain
// function).
func isFuncCall(pass *Pass, call *ast.CallExpr, pkgPath, name string) bool {
	fn := callee(pass, call)
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// isMethodCallOn reports whether call invokes method <name> with a
// receiver of (possibly pointer to) pkgPath.recvType.
func isMethodCallOn(pass *Pass, call *ast.CallExpr, pkgPath, recvType, name string) bool {
	fn := callee(pass, call)
	if fn == nil || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return recvIs(sig.Recv().Type(), pkgPath, recvType)
}

// isArgOfMethod reports whether call is recv.<method>(..., v, ...)
// with the receiver type pkgPath.recvType and v among the arguments.
func isArgOfMethod(pass *Pass, call *ast.CallExpr, v *types.Var, pkgPath, recvType, method string) bool {
	if !isMethodCallOn(pass, call, pkgPath, recvType, method) {
		return false
	}
	for _, a := range call.Args {
		if id, ok := a.(*ast.Ident); ok && pass.Info.Uses[id] == v {
			return true
		}
	}
	return false
}

// recvIs reports whether t (or its pointee) is pkgPath.name.
func recvIs(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}
