package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolSafety enforces the payload-pool ownership contract from
// internal/stream: once a buffer has been handed back with PutPayload /
// putFrame, or a polled batch recycled with RecycleMessages, the caller
// must not touch it again — the pool may have already handed the bytes
// to another goroutine. The analyzer runs a branch-aware, per-function
// scan: a buffer recycled on some path is "maybe free" afterwards, any
// use reports, and recycling it again reports a double-recycle. Loop
// bodies are scanned twice so a kill at the bottom of an iteration is
// seen by the top of the next.
//
// After RecycleMessages(msgs) the message *slice header* is still owned
// by the caller (only the element buffers went back), so re-arming reuse
// via msgs[:0], len(msgs) and cap(msgs) stays legal; everything else —
// indexing, ranging — reads nil'd payloads and reports.
//
// A message lent to a PollEach / FetchEach callback is the opposite case:
// its Key and Value are views of the broker's log or of a response frame,
// never the callback's to give away, so recycling the parameter (or a field
// of it) inside the callback reports — the pool would hand out bytes the
// log still holds.
//
// The analysis is per-function and does not track aliases: a copy of a
// message value taken before the recycle escapes it. The debug build
// (-tags cad3_checks) closes that gap at runtime, and poisons a lent message
// once its callback returns, which catches a view that is kept.
var PoolSafety = &Analyzer{
	Name:   "poolsafety",
	Doc:    "no use of pooled buffers after PutPayload/RecycleMessages, no double-recycle",
	RunPkg: runPoolSafety,
}

// recycle kinds: what the kill call said about the variable.
type recycleKind int

const (
	// recycledBuffer: PutPayload/putFrame — the backing bytes are gone.
	recycledBuffer recycleKind = iota
	// recycledBatch: RecycleMessages — elements freed, header still owned.
	recycledBatch
)

// poolKillFuncs maps callee names to the recycle kind they impose on
// their (first) argument. Name-based matching keeps the analyzer usable
// on golden testdata and immune to import renames; the names are unique
// to the stream package in this repo.
var poolKillFuncs = map[string]recycleKind{
	"PutPayload":      recycledBuffer,
	"putFrame":        recycledBuffer,
	"RecycleMessages": recycledBatch,
}

// lendingCalls are the methods whose last argument is a callback that is
// lent — not given — each message.
var lendingCalls = map[string]bool{"PollEach": true, "FetchEach": true}

// kill records where and how a variable was recycled.
type kill struct {
	kind recycleKind
	pos  token.Pos
}

// poolState is the per-path "maybe freed" set, keyed by the variable's
// types.Object identity.
type poolState map[types.Object]kill

func (s poolState) clone() poolState {
	c := make(poolState, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// merge unions the kills of another path into s (maybe-freed semantics).
func (s poolState) merge(o poolState) {
	for k, v := range o {
		if _, ok := s[k]; !ok {
			s[k] = v
		}
	}
}

// poolChecker scans one function scope.
type poolChecker struct {
	prog *Program
	pkg  *Package
	out  *[]Finding
	seen map[token.Pos]bool // dedupe across the double loop pass
}

func runPoolSafety(prog *Program, pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					c := &poolChecker{prog: prog, pkg: pkg, out: &out, seen: map[token.Pos]bool{}}
					c.block(fn.Body, poolState{})
				}
			case *ast.FuncLit:
				// Function literals are separate scopes with their own
				// execution time (often deferred callbacks); they are
				// scanned independently, and kills inside them do not
				// leak into the enclosing flow. The walk goes on into the
				// body for the literals and lending calls nested in it.
				c := &poolChecker{prog: prog, pkg: pkg, out: &out, seen: map[token.Pos]bool{}}
				c.block(fn.Body, poolState{})
			case *ast.CallExpr:
				if lit := lentCallback(fn); lit != nil {
					c := &poolChecker{prog: prog, pkg: pkg, out: &out, seen: map[token.Pos]bool{}}
					c.borrowed(lit, calleeName(fn))
				}
			}
			return true
		})
	}
	return out
}

// lentCallback returns the function literal a PollEach / FetchEach call
// hands its messages to, or nil.
func lentCallback(call *ast.CallExpr) *ast.FuncLit {
	if !lendingCalls[calleeName(call)] || len(call.Args) == 0 {
		return nil
	}
	lit, _ := call.Args[len(call.Args)-1].(*ast.FuncLit)
	return lit
}

// borrowed reports every recycle, inside a lending call's callback, of the
// message parameter or of anything reached through it (m.Key, m.Value,
// &m, []Message{m}).
func (c *poolChecker) borrowed(lit *ast.FuncLit, lender string) {
	if lit.Type.Params == nil || len(lit.Type.Params.List) == 0 || len(lit.Type.Params.List[0].Names) == 0 {
		return
	}
	param := c.pkg.Info.Defs[lit.Type.Params.List[0].Names[0]]
	if param == nil {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		name := calleeName(call)
		if _, isKill := poolKillFuncs[name]; !isKill {
			return true
		}
		reaches := false
		ast.Inspect(call.Args[0], func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && c.pkg.Info.Uses[id] == param {
				reaches = true
			}
			return !reaches
		})
		if reaches {
			c.report(call.Pos(), "recycle of borrowed message "+param.Name()+" via "+name+
				": a "+lender+" callback is lent views the broker still owns, never pooled buffers")
		}
		return true
	})
}

// report emits one finding, deduped by position.
func (c *poolChecker) report(pos token.Pos, msg string) {
	if c.seen[pos] {
		return
	}
	c.seen[pos] = true
	*c.out = append(*c.out, Finding{
		Pos:      c.prog.Fset.Position(pos),
		Analyzer: "poolsafety",
		Message:  msg,
	})
}

// obj resolves a plain identifier to its object, or nil.
func (c *poolChecker) obj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := c.pkg.Info.Uses[id]; o != nil {
		return o
	}
	return c.pkg.Info.Defs[id]
}

// block runs the scan over a statement list, mutating and returning the
// state. terminated reports whether the path definitely left the block
// (return / branch), so callers can skip joining it.
func (c *poolChecker) block(b *ast.BlockStmt, st poolState) (poolState, bool) {
	if b == nil {
		return st, false
	}
	return c.stmts(b.List, st)
}

func (c *poolChecker) stmts(list []ast.Stmt, st poolState) (poolState, bool) {
	for _, s := range list {
		var term bool
		st, term = c.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (c *poolChecker) stmt(s ast.Stmt, st poolState) (poolState, bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		c.expr(x.X, st)
		c.applyKills(x.X, st)
	case *ast.AssignStmt:
		for _, rhs := range x.Rhs {
			c.expr(rhs, st)
			c.applyKills(rhs, st)
		}
		for _, lhs := range x.Lhs {
			if o := c.obj(lhs); o != nil {
				delete(st, o) // reassignment revives the variable
			} else {
				c.expr(lhs, st) // e.g. m.Key = nil: check the base
			}
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v, st)
						c.applyKills(v, st)
					}
					for _, name := range vs.Names {
						if o := c.pkg.Info.Defs[name]; o != nil {
							delete(st, o)
						}
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			c.expr(r, st)
		}
		return st, true
	case *ast.BranchStmt:
		return st, true
	case *ast.IfStmt:
		if x.Init != nil {
			st, _ = c.stmt(x.Init, st)
		}
		c.expr(x.Cond, st)
		thenSt, thenTerm := c.block(x.Body, st.clone())
		elseSt, elseTerm := st.clone(), false
		if x.Else != nil {
			switch e := x.Else.(type) {
			case *ast.BlockStmt:
				elseSt, elseTerm = c.block(e, elseSt)
			case *ast.IfStmt:
				elseSt, elseTerm = c.stmt(e, elseSt)
			}
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			thenSt.merge(elseSt)
			return thenSt, false
		}
	case *ast.ForStmt:
		if x.Init != nil {
			st, _ = c.stmt(x.Init, st)
		}
		if x.Cond != nil {
			c.expr(x.Cond, st)
		}
		// Two passes: the second starts from the first pass's out-state so
		// a kill late in iteration N is visible early in iteration N+1.
		once, _ := c.block(x.Body, st.clone())
		if x.Post != nil {
			once, _ = c.stmt(x.Post, once)
		}
		if x.Cond != nil {
			c.expr(x.Cond, once) // the condition re-reads state each iteration
		}
		twice, _ := c.block(x.Body, once)
		st.merge(twice)
		return st, false
	case *ast.RangeStmt:
		c.expr(x.X, st)
		// Key/value are rebound at the top of every iteration, so a kill of
		// the loop variable in iteration N does not carry into N+1.
		clearLoopVars := func(s poolState) {
			if o := c.obj(x.Key); o != nil {
				delete(s, o)
			}
			if o := c.obj(x.Value); o != nil {
				delete(s, o)
			}
		}
		clearLoopVars(st)
		once, _ := c.block(x.Body, st.clone())
		clearLoopVars(once)
		twice, _ := c.block(x.Body, once)
		st.merge(twice)
		return st, false
	case *ast.SwitchStmt:
		if x.Init != nil {
			st, _ = c.stmt(x.Init, st)
		}
		if x.Tag != nil {
			c.expr(x.Tag, st)
		}
		joined := st.clone()
		for _, cc := range x.Body.List {
			cl := cc.(*ast.CaseClause)
			for _, e := range cl.List {
				c.expr(e, st)
			}
			caseSt, term := c.stmts(cl.Body, st.clone())
			if !term {
				joined.merge(caseSt)
			}
		}
		return joined, false
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			st, _ = c.stmt(x.Init, st)
		}
		joined := st.clone()
		for _, cc := range x.Body.List {
			cl := cc.(*ast.CaseClause)
			caseSt, term := c.stmts(cl.Body, st.clone())
			if !term {
				joined.merge(caseSt)
			}
		}
		return joined, false
	case *ast.SelectStmt:
		joined := st.clone()
		for _, cc := range x.Body.List {
			cl := cc.(*ast.CommClause)
			caseSt := st.clone()
			if cl.Comm != nil {
				caseSt, _ = c.stmt(cl.Comm, caseSt)
			}
			caseSt, term := c.stmts(cl.Body, caseSt)
			if !term {
				joined.merge(caseSt)
			}
		}
		return joined, false
	case *ast.BlockStmt:
		return c.block(x, st)
	case *ast.LabeledStmt:
		return c.stmt(x.Stmt, st)
	case *ast.SendStmt:
		c.expr(x.Chan, st)
		c.expr(x.Value, st)
	case *ast.IncDecStmt:
		c.expr(x.X, st)
	case *ast.GoStmt, *ast.DeferStmt:
		// Spawned/deferred bodies execute at another time; their kills and
		// uses are checked in their own scope (runPoolSafety visits every
		// FuncLit independently).
	}
	return st, false
}

// applyKills registers recycle calls appearing in the expression.
func (c *poolChecker) applyKills(e ast.Expr, st poolState) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return
	}
	name := calleeName(call)
	kind, isKill := poolKillFuncs[name]
	if !isKill || len(call.Args) == 0 {
		return
	}
	arg := call.Args[0]
	if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
		arg = u.X
	}
	o := c.obj(arg)
	if o == nil {
		return
	}
	if prev, dead := st[o]; dead {
		c.report(call.Pos(), "double recycle of "+o.Name()+" via "+name+
			" (already recycled at "+c.prog.Fset.Position(prev.pos).String()+")")
		return
	}
	st[o] = kill{kind: kind, pos: call.Pos()}
}

// expr reports uses of maybe-freed variables inside e.
func (c *poolChecker) expr(e ast.Expr, st poolState) {
	if e == nil || len(st) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // separate scope, separate execution time
		case *ast.CallExpr:
			// The recycle call itself is handled by applyKills; len/cap of
			// a recycled batch is legal. Re-killing shows as double-recycle.
			if name := calleeName(x); name == "len" || name == "cap" {
				if len(x.Args) == 1 {
					if o := c.obj(x.Args[0]); o != nil {
						if k, dead := st[o]; dead && k.kind == recycledBatch {
							return false
						}
					}
				}
			}
			if _, isKill := poolKillFuncs[calleeName(x)]; isKill {
				for _, a := range x.Args[min(1, len(x.Args)):] {
					c.expr(a, st)
				}
				return false
			}
			return true
		case *ast.SliceExpr:
			// msgs[:0] re-arms a recycled batch for PollInto — legal.
			if o := c.obj(x.X); o != nil {
				if k, dead := st[o]; dead && k.kind == recycledBatch && sliceIsZeroReset(x) {
					return false
				}
			}
			return true
		case *ast.Ident:
			o := c.pkg.Info.Uses[x]
			if o == nil {
				return true
			}
			if k, dead := st[o]; dead {
				what := "pooled buffer"
				if k.kind == recycledBatch {
					what = "recycled message batch"
				}
				c.report(x.Pos(), "use of "+what+" "+o.Name()+" after recycle at "+
					c.prog.Fset.Position(k.pos).String())
			}
		}
		return true
	})
}

// sliceIsZeroReset matches x[:0] (and x[0:0]) — a length reset that
// keeps only the header.
func sliceIsZeroReset(s *ast.SliceExpr) bool {
	if s.High == nil || s.Slice3 {
		return false
	}
	if lit, ok := s.High.(*ast.BasicLit); !ok || lit.Value != "0" {
		return false
	}
	if s.Low == nil {
		return true
	}
	lit, ok := s.Low.(*ast.BasicLit)
	return ok && lit.Value == "0"
}

// calleeName extracts the called function's bare name from a call.
func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}
