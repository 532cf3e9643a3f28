package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// pathflow is the shared acquire/release path walker behind mustwait
// and lifecycle. It tracks, per function body, the set of local
// variables holding a live resource and reports every exit path
// (return, fall-off-the-end, loop-iteration end for per-iteration
// acquires) on which a live resource is neither released nor handed
// off.
//
// The walk is intraprocedural and deliberately modest: branches of an
// if/switch/select are analyzed independently and merged (a resource
// is live after the merge if any surviving branch leaves it live);
// loops are analyzed optimistically (a release inside a loop body
// counts even though the body may run zero times); panic and Fatal
// calls terminate a path without a report, since a dying process
// cannot leak into a pool. Ownership hand-offs — returning the
// resource, storing it into a field, global, container or channel,
// capturing it in a closure, or (when the spec says arguments consume)
// passing it to a call — end tracking. What remains is the pattern
// that has actually bitten this repo: an early return or continue that
// skips the Recycle/Release/Wait the happy path performs.

// A pairSpec describes one acquire/release invariant.
type pairSpec struct {
	// resource names the tracked thing in messages ("dist collective handle").
	resource string
	// verb names the required release in messages ("Wait", "Recycle").
	verb string
	// acquireCall reports whether calling this callee yields a tracked
	// resource (assigned to a local).
	acquireCall func(pass *Pass, call *ast.CallExpr) bool
	// acquireRange reports whether `for v := range <call>` hands out a
	// tracked resource each iteration.
	acquireRange func(pass *Pass, call *ast.CallExpr) bool
	// isRelease reports whether this call releases v — as method
	// receiver (v.Release()) or as argument (loader.Recycle(v)).
	isRelease func(pass *Pass, call *ast.CallExpr, v *types.Var) bool
	// argConsumes: passing the resource as an ordinary call argument
	// transfers responsibility (true for async handles, whose ...After
	// chaining takes the predecessor as an argument).
	argConsumes bool
}

// flowState maps live resource variables to their acquire position.
type flowState map[*types.Var]token.Pos

func (s flowState) clone() flowState {
	c := make(flowState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// loopFrame tracks an enclosing breakable statement so break/continue
// can be checked against per-iteration acquires and so a break's state
// flows to the statement after its target.
type loopFrame struct {
	isLoop bool // for/range: a continue target
	// entry is the liveness state at loop entry: variables live at a
	// break/continue but NOT live at entry were acquired inside the
	// current iteration and die with it.
	entry flowState
	// breakStates collects the liveness state at each break targeting
	// this frame; they merge into the frame's exit state.
	breakStates []flowState
}

type pathWalker struct {
	pass  *Pass
	spec  *pairSpec
	loops []*loopFrame
}

// checkPairs runs every spec over every function body in the package.
func checkPairs(pass *Pass, specs []*pairSpec) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				for _, spec := range specs {
					w := &pathWalker{pass: pass, spec: spec}
					out, term := w.walkStmts(body.List, flowState{})
					if !term {
						for v, pos := range out {
							w.reportLeak(pos, v, "function ends")
						}
					}
				}
			}
			return true
		})
	}
}

func (w *pathWalker) reportLeak(acquirePos token.Pos, v *types.Var, how string) {
	w.pass.Reportf(acquirePos, "%s %s acquired here but %s without %s (and it does not escape)",
		w.spec.resource, v.Name(), how, w.spec.verb)
}

// walkStmts walks a statement list with the given entry state,
// returning the exit state and whether every path through the list
// terminates (returns, panics, or fatals).
func (w *pathWalker) walkStmts(list []ast.Stmt, st flowState) (flowState, bool) {
	for _, s := range list {
		var term bool
		st, term = w.walkStmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *pathWalker) walkStmt(s ast.Stmt, st flowState) (flowState, bool) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		return w.walkAssign(s, st), false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					w.scan(val, st, true)
				}
				if len(vs.Values) == len(vs.Names) {
					for i, val := range vs.Values {
						w.bindAcquire(vs.Names[i], val, st)
					}
				}
			}
		}
		return st, false

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if w.spec.acquireCall != nil && w.spec.acquireCall(w.pass, call) {
				w.pass.Reportf(call.Pos(), "result of this call is a %s and is dropped: it must reach %s or escape",
					w.spec.resource, w.spec.verb)
				w.scanCallArgs(call, st)
				return st, false
			}
			if isTerminalCall(w.pass, call) {
				w.scan(s.X, st, false)
				return st, true
			}
		}
		w.scan(s.X, st, false)
		return st, false

	case *ast.SendStmt:
		w.scan(s.Chan, st, false)
		w.scan(s.Value, st, true)
		return st, false

	case *ast.IncDecStmt:
		w.scan(s.X, st, false)
		return st, false

	case *ast.DeferStmt:
		// A deferred release covers every later exit; approximating it
		// as an immediate release is safe for the early-return pattern
		// this walker exists to catch (defers almost always precede
		// the returns they guard).
		if w.releaseByCall(s.Call, st) {
			return st, false
		}
		w.scan(s.Call, st, true)
		return st, false

	case *ast.GoStmt:
		w.scan(s.Call, st, true)
		return st, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scan(r, st, true)
		}
		for v, pos := range st {
			w.reportLeak(pos, v, "this path returns")
		}
		return flowState{}, true

	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		w.scan(s.Cond, st, false)
		thenSt, t1 := w.walkStmts(s.Body.List, st.clone())
		elseSt, t2 := st.clone(), false
		if s.Else != nil {
			elseSt, t2 = w.walkStmt(s.Else, elseSt)
		}
		switch {
		case t1 && t2:
			return flowState{}, true
		case t1:
			return elseSt, false
		case t2:
			return thenSt, false
		default:
			return mergeAny(thenSt, elseSt), false
		}

	case *ast.BlockStmt:
		return w.walkStmts(s.List, st)

	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, st)

	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			w.scan(s.Cond, st, false)
		}
		fr := &loopFrame{isLoop: true, entry: st.clone()}
		w.loops = append(w.loops, fr)
		bodySt, _ := w.walkStmts(s.Body.List, st.clone())
		if s.Post != nil {
			w.scan(postExpr(s.Post), bodySt, false)
		}
		w.loops = w.loops[:len(w.loops)-1]
		out := mergeLoop(st, bodySt)
		for _, bs := range fr.breakStates {
			out = mergeAny(out, bs)
		}
		return out, false

	case *ast.RangeStmt:
		return w.walkRange(s, st)

	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			w.scan(s.Tag, st, false)
		}
		return w.walkClauses(clauseBodies(s.Body), hasDefaultClause(s.Body), st)

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.walkStmt(s.Init, st)
		}
		if as, ok := s.Assign.(*ast.AssignStmt); ok {
			for _, r := range as.Rhs {
				w.scan(r, st, false)
			}
		} else if es, ok := s.Assign.(*ast.ExprStmt); ok {
			w.scan(es.X, st, false)
		}
		return w.walkClauses(clauseBodies(s.Body), hasDefaultClause(s.Body), st)

	case *ast.SelectStmt:
		var bodies [][]ast.Stmt
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			var body []ast.Stmt
			if cc.Comm != nil {
				body = append(body, cc.Comm)
			}
			body = append(body, cc.Body...)
			bodies = append(bodies, body)
		}
		// A select always takes some clause, so there is no implicit
		// fall-through path.
		return w.walkClauses(bodies, true, st)

	case *ast.BranchStmt:
		// break/continue/goto end the current path; break additionally
		// delivers its state to the statement after its target.
		if s.Label == nil && (s.Tok == token.BREAK || s.Tok == token.CONTINUE) {
			w.branchExit(s, st)
		}
		return flowState{}, true

	default:
		return st, false
	}
}

// postExpr digs the expression out of a for-post statement for
// scanning; nil when there is none.
func postExpr(s ast.Stmt) ast.Expr {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return s.X
	case *ast.IncDecStmt:
		return s.X
	}
	return nil
}

// branchExit handles an unlabeled break or continue: per-iteration
// acquires still live when their loop's iteration ends are leaks, and
// a break's surviving state joins its target's exit.
func (w *pathWalker) branchExit(s *ast.BranchStmt, st flowState) {
	// Find the frame the unlabeled branch targets: continue targets
	// the innermost loop, break the innermost breakable.
	for i := len(w.loops) - 1; i >= 0; i-- {
		fr := w.loops[i]
		if s.Tok == token.CONTINUE && !fr.isLoop {
			continue
		}
		if fr.isLoop {
			for v, pos := range st {
				if _, wasLive := fr.entry[v]; !wasLive {
					w.reportLeak(pos, v, "this "+s.Tok.String()+" ends the iteration")
					delete(st, v)
				}
			}
		}
		if s.Tok == token.BREAK {
			fr.breakStates = append(fr.breakStates, st.clone())
		}
		return
	}
}

// walkClauses analyzes switch/select clause bodies independently and
// merges the survivors; exhaustive means there is no implicit
// fall-through path (a default clause, or a select).
func (w *pathWalker) walkClauses(bodies [][]ast.Stmt, exhaustive bool, st flowState) (flowState, bool) {
	fr := &loopFrame{isLoop: false, entry: st.clone()}
	w.loops = append(w.loops, fr)
	var survivors []flowState
	for _, body := range bodies {
		out, term := w.walkStmts(body, st.clone())
		if !term {
			survivors = append(survivors, out)
		}
	}
	w.loops = w.loops[:len(w.loops)-1]
	survivors = append(survivors, fr.breakStates...)
	if !exhaustive {
		survivors = append(survivors, st)
	}
	if len(survivors) == 0 {
		return flowState{}, true
	}
	out := survivors[0]
	for _, s := range survivors[1:] {
		out = mergeAny(out, s)
	}
	return out, false
}

func clauseBodies(body *ast.BlockStmt) [][]ast.Stmt {
	var out [][]ast.Stmt
	for _, c := range body.List {
		out = append(out, c.(*ast.CaseClause).Body)
	}
	return out
}

func hasDefaultClause(body *ast.BlockStmt) bool {
	for _, c := range body.List {
		if c.(*ast.CaseClause).List == nil {
			return true
		}
	}
	return false
}

// walkRange handles both ordinary ranges and per-iteration acquires
// (`for batch := range loader.EpochN(n)`).
func (w *pathWalker) walkRange(s *ast.RangeStmt, st flowState) (flowState, bool) {
	var acquired *types.Var
	if call, ok := s.X.(*ast.CallExpr); ok && w.spec.acquireRange != nil && w.spec.acquireRange(w.pass, call) {
		if id, ok := s.Key.(*ast.Ident); ok && id.Name != "_" {
			if v, ok := w.pass.Info.Defs[id].(*types.Var); ok {
				acquired = v
			}
		}
		w.scanCallArgs(call, st)
	} else {
		w.scan(s.X, st, false)
	}
	bodySt := st.clone()
	if acquired != nil {
		bodySt[acquired] = s.Key.Pos()
	}
	fr := &loopFrame{isLoop: true, entry: st.clone()}
	w.loops = append(w.loops, fr)
	out, _ := w.walkStmts(s.Body.List, bodySt)
	w.loops = w.loops[:len(w.loops)-1]
	if acquired != nil {
		if pos, live := out[acquired]; live {
			w.reportLeak(pos, acquired, "the loop iteration ends")
		}
		delete(out, acquired)
	}
	merged := mergeLoop(st, out)
	for _, bs := range fr.breakStates {
		merged = mergeAny(merged, bs)
	}
	return merged, false
}

// walkAssign scans the right-hand sides (consuming: assignment hands
// the value off) and then binds fresh acquires to their left-hand
// identifiers.
func (w *pathWalker) walkAssign(s *ast.AssignStmt, st flowState) flowState {
	for i, r := range s.Rhs {
		// `_ = h` is not a hand-off: blank assignment of a bare ident
		// neither waits nor escapes, so it must not clear tracking.
		if len(s.Lhs) == len(s.Rhs) && isIdent(r) {
			if lhs, ok := s.Lhs[i].(*ast.Ident); ok && lhs.Name == "_" {
				continue
			}
		}
		w.scan(r, st, true)
	}
	for _, l := range s.Lhs {
		if !isIdent(l) {
			w.scan(l, st, false)
		}
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i, r := range s.Rhs {
			if id, ok := s.Lhs[i].(*ast.Ident); ok {
				w.rebind(id, r, st)
			}
		}
	} else if len(s.Rhs) == 1 {
		// Multi-value: v, err := acquire() — bind the first non-blank
		// ident if the call acquires.
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && w.spec.acquireCall != nil && w.spec.acquireCall(w.pass, call) {
			for _, l := range s.Lhs {
				if id, ok := l.(*ast.Ident); ok && id.Name != "_" {
					w.rebind(id, s.Rhs[0], st)
					break
				}
			}
		}
	}
	return st
}

// rebind processes one lhs ident = rhs pair: overwriting a live
// resource is a leak; assigning a fresh acquire starts tracking.
func (w *pathWalker) rebind(id *ast.Ident, rhs ast.Expr, st flowState) {
	isAcq := false
	if call, ok := rhs.(*ast.CallExpr); ok && w.spec.acquireCall != nil && w.spec.acquireCall(w.pass, call) {
		isAcq = true
	}
	if id.Name == "_" {
		if isAcq {
			w.pass.Reportf(rhs.Pos(), "%s assigned to _ here: it must reach %s or escape",
				w.spec.resource, w.spec.verb)
		}
		return
	}
	obj := w.pass.Info.Defs[id]
	if obj == nil {
		obj = w.pass.Info.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return
	}
	if pos, live := st[v]; live {
		// The rhs scan already cleared v if the new value consumed it
		// (h = chain(h)); a survivor here is overwritten and lost.
		w.reportLeak(pos, v, "this assignment overwrites it")
		delete(st, v)
	}
	if isAcq && v.Pkg() == w.pass.Pkg && !v.IsField() && v.Parent() != v.Pkg().Scope() {
		st[v] = id.Pos()
	}
}

// bindAcquire is rebind for `var x = acquire()` declarations.
func (w *pathWalker) bindAcquire(id *ast.Ident, rhs ast.Expr, st flowState) {
	w.rebind(id, rhs, st)
}

func isIdent(e ast.Expr) bool {
	_, ok := e.(*ast.Ident)
	return ok
}

// releaseByCall clears any live variable this call releases, and
// reports whether it was a release.
func (w *pathWalker) releaseByCall(call *ast.CallExpr, st flowState) bool {
	if w.spec.isRelease == nil {
		return false
	}
	for v := range st {
		if w.spec.isRelease(w.pass, call, v) {
			delete(st, v)
			return true
		}
	}
	return false
}

// scan walks an expression updating st. consuming means the value
// flows somewhere that takes ownership (return, store, send,
// composite literal, alias assignment); a live ident reached in a
// consuming context stops being tracked. Closure capture and
// address-taking always consume. Call arguments consume only when the
// spec says so; the callee may instead be a configured release.
func (w *pathWalker) scan(e ast.Expr, st flowState, consuming bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if !consuming {
			return
		}
		if v, ok := w.objOf(e); ok {
			delete(st, v)
		}
	case *ast.CallExpr:
		if w.releaseByCall(e, st) {
			// Still scan non-ident argument subexpressions.
			for _, a := range e.Args {
				if !isIdent(a) {
					w.scan(a, st, w.spec.argConsumes)
				}
			}
			return
		}
		w.scan(e.Fun, st, false)
		w.scanCallArgs(e, st)
	case *ast.SelectorExpr:
		// Field access / method value on the resource is plain use.
		w.scan(e.X, st, false)
	case *ast.FuncLit:
		// Any capture of a live resource escapes into the closure.
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if v, ok := w.objOf(id); ok {
					delete(st, v)
				}
			}
			return true
		})
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			w.scan(e.X, st, true)
			return
		}
		w.scan(e.X, st, false)
	case *ast.StarExpr:
		w.scan(e.X, st, false)
	case *ast.ParenExpr:
		w.scan(e.X, st, consuming)
	case *ast.BinaryExpr:
		w.scan(e.X, st, false)
		w.scan(e.Y, st, false)
	case *ast.IndexExpr:
		w.scan(e.X, st, false)
		w.scan(e.Index, st, false)
	case *ast.SliceExpr:
		w.scan(e.X, st, false)
		w.scan(e.Low, st, false)
		w.scan(e.High, st, false)
		w.scan(e.Max, st, false)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.scan(kv.Value, st, true)
				continue
			}
			w.scan(el, st, true)
		}
	case *ast.KeyValueExpr:
		w.scan(e.Value, st, true)
	case *ast.TypeAssertExpr:
		w.scan(e.X, st, false)
	}
}

// scanCallArgs scans a call's arguments, consuming idents when the
// spec transfers ownership through calls.
func (w *pathWalker) scanCallArgs(call *ast.CallExpr, st flowState) {
	for _, a := range call.Args {
		w.scan(a, st, w.spec.argConsumes)
	}
}

// objOf resolves an ident to a live tracked variable.
func (w *pathWalker) objOf(id *ast.Ident) (*types.Var, bool) {
	obj := w.pass.Info.Uses[id]
	if obj == nil {
		obj = w.pass.Info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	return v, ok
}

// isTerminalCall reports calls that end the path: panic, os.Exit,
// log/testing Fatal variants, and runtime.Goexit.
func isTerminalCall(pass *Pass, call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := pass.Info.Uses[fun]; ok && obj == types.Universe.Lookup("panic") {
			return true
		}
	case *ast.SelectorExpr:
		switch fun.Sel.Name {
		case "Exit", "Fatal", "Fatalf", "Fatalln", "Goexit", "Skip", "Skipf", "SkipNow", "FailNow":
			return true
		}
	}
	return false
}

// mergeAny unions liveness: a resource is live after a branch merge if
// any surviving branch leaves it live.
func mergeAny(a, b flowState) flowState {
	for v, pos := range b {
		if _, ok := a[v]; !ok {
			a[v] = pos
		}
	}
	return a
}

// mergeLoop merges a loop body's exit state into the pre-loop state
// optimistically: a release inside the body counts even though the
// body may run zero times (per-iteration leaks are reported inside
// walkRange/checkBranchLeak instead).
func mergeLoop(pre, body flowState) flowState {
	out := flowState{}
	for v, pos := range pre {
		if _, stillLive := body[v]; stillLive {
			out[v] = pos
		}
	}
	return out
}
