package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// parallelPkgPath is the package whose loop bodies orderedreduce checks.
const parallelPkgPath = "repro/internal/parallel"

// parallelLoops are the parallel entry points that run a func literal
// body on several tasks at once.
var parallelLoops = map[string]bool{"For": true, "ForGrain": true, "Range": true, "RangeGrain": true}

// OrderedReduce flags a floating-point +=, -= or *= inside a body passed
// to parallel.For/ForGrain/Range/RangeGrain whose target is a variable
// declared outside that body. Every task folds into the one variable in
// whatever order the tasks run, so the result depends on scheduling and
// on the worker count — the seed-era nn.MSE bug, which a mutex made
// race-free but not deterministic. The sanctioned form is a partial per
// task or block, indexed by the task's range and summed serially after
// the loop; an indexed element is therefore never flagged.
var OrderedReduce = &Analyzer{
	Name: "orderedreduce",
	Doc:  "floating-point +=, -=, *= on a variable captured by a parallel.For/ForGrain/Range/RangeGrain body",
	Run: func(pass *Pass) {
		reported := map[token.Pos]bool{}
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isParallelLoop(pass, call) || len(call.Args) == 0 {
					return true
				}
				body, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
				if !ok {
					return true
				}
				ast.Inspect(body.Body, func(n ast.Node) bool {
					as, ok := n.(*ast.AssignStmt)
					if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN && as.Tok != token.MUL_ASSIGN) {
						return true
					}
					lhs := as.Lhs[0]
					v := capturedTarget(pass, lhs, body)
					if v == nil || !isFloat(pass.Info.TypeOf(lhs)) || reported[as.TokPos] {
						return true
					}
					reported[as.TokPos] = true
					pass.Reportf(as.TokPos, "floating-point %s on %s, declared outside the parallel loop body: the result depends on task order (keep a partial per task, indexed by its range, and sum them after the loop)", as.Tok, v.Name())
					return true
				})
				return true
			})
		}
	},
}

// isParallelLoop reports whether call calls one of parallelLoops.
func isParallelLoop(pass *Pass, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fn
	case *ast.SelectorExpr:
		id = fn.Sel
	default:
		return false
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == parallelPkgPath && parallelLoops[fn.Name()]
}

// capturedTarget returns the variable an assignment target names — the
// variable itself, a field of it, or what it points to, but not an
// element indexed out of it — when that variable is declared outside
// lit; otherwise nil.
func capturedTarget(pass *Pass, e ast.Expr, lit *ast.FuncLit) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, ok := pass.Info.Uses[x].(*types.Var)
			if !ok || (v.Pos() >= lit.Pos() && v.Pos() < lit.End()) {
				return nil
			}
			return v
		case *ast.SelectorExpr:
			e = x.X
			if pass.Info.Selections[x] == nil { // pkg.Var
				e = x.Sel
			}
		case *ast.StarExpr:
			e = x.X
		default:
			return nil
		}
	}
}
