package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline tracks mutex state through each function body and
// reports the lock-misuse shapes that produce the repo's worst failure
// modes — multi-second stalls on the hot path and replay-breaking
// deadlocks:
//
//   - holding a lock across a blocking operation: a channel send or
//     receive, a select without a default, sync.WaitGroup.Wait,
//     time.Sleep, or a broker/client network call (Produce, Fetch,
//     Poll, Commit, ...). Every other goroutine that needs the lock —
//     including metrics gauges registered against it — stalls for the
//     full network round trip;
//   - double-acquiring the same lock on one path (self-deadlock);
//   - a path that returns with the lock still held and no deferred
//     unlock (everything wedges at the next acquire);
//   - copying a value whose type contains a sync.Mutex/RWMutex by
//     value (the copy's lock state is meaningless).
//
// The analysis is intraprocedural: it does not follow calls into other
// functions, so helpers that acquire on behalf of their caller follow
// the repo convention of a FooLocked name and take a //cad3:allow where
// the analysis cannot see the protocol.
//
// Justified by (CHANGES.md, "cad3-vet v2"): it found SummaryRouter.Flush
// holding its lock across a produce.
var LockDiscipline = &Analyzer{
	Name:   "lockdiscipline",
	Doc:    "no blocking ops under a mutex, no double-lock, unlock on every path, no lock copies",
	RunPkg: runLockDiscipline,
}

// lockPkgs are the concurrency-bearing packages (matched on the final
// import-path element).
var lockPkgs = map[string]bool{
	"stream": true, "flow": true, "rsu": true, "city": true,
	"obsv": true, "microbatch": true, "vehicle": true, "geo": true,
}

// blockingClientNames are method names that perform (or transitively
// wait on) network round trips in this codebase's client surfaces.
var blockingClientNames = map[string]bool{
	"Produce": true, "ProduceBatch": true, "ProduceBatchInto": true,
	"Fetch": true, "FetchEach": true, "FetchCommitted": true,
	"Poll": true, "PollInto": true, "PollEach": true, "Commit": true, "CommitOffsets": true,
	"Subscribe": true, "CreateTopic": true, "Dial": true, "DialContext": true,
}

func runLockDiscipline(prog *Program, pkg *Package) []Finding {
	if !lockPkgs[pkgBase(pkg.Path)] {
		return nil
	}
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			w := &lockWalker{prog: prog, pkg: pkg, out: &out}
			// Analyze the declared body, then every function literal inside
			// it as an independent function (a goroutine or callback does
			// not inherit the spawner's lock state).
			w.analyzeBody(fn.Body, fn.Name.Name)
			checkLockCopies(prog, pkg, fn, &out)
		}
	}
	return out
}

// lockState is the per-path abstract state: which lock expressions are
// held, and which of them already have a deferred unlock scheduled.
type lockState struct {
	held     map[string]token.Pos
	deferred map[string]bool
}

func newLockState() *lockState {
	return &lockState{held: map[string]token.Pos{}, deferred: map[string]bool{}}
}

func (s *lockState) clone() *lockState {
	c := newLockState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k := range s.deferred {
		c.deferred[k] = true
	}
	return c
}

// merge intersects held sets (a lock is held after a branch only if
// every surviving path holds it) and unions deferred unlocks.
func merge(states []*lockState) *lockState {
	var live []*lockState
	for _, s := range states {
		if s != nil {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		return nil
	}
	m := newLockState()
	for k, v := range live[0].held {
		inAll := true
		for _, s := range live[1:] {
			if _, ok := s.held[k]; !ok {
				inAll = false
				break
			}
		}
		if inAll {
			m.held[k] = v
		}
	}
	for _, s := range live {
		for k := range s.deferred {
			m.deferred[k] = true
		}
	}
	return m
}

// unreleased lists the locks held with no deferred unlock, sorted for
// stable messages.
func (s *lockState) unreleased() []string {
	var names []string
	for k := range s.held {
		if !s.deferred[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

type lockWalker struct {
	prog *Program
	pkg  *Package
	out  *[]Finding
	fn   string
	// callerHeld records locks whose first operation in this function is
	// an Unlock: the caller holds them by contract (the checkNode-style
	// drop-and-retake helper), so returning with them re-held is the
	// contract, not a leak.
	callerHeld map[string]bool
}

func (w *lockWalker) report(pos token.Pos, msg string) {
	*w.out = append(*w.out, Finding{
		Pos:      w.prog.Fset.Position(pos),
		Analyzer: "lockdiscipline",
		Message:  w.fn + " " + msg,
	})
}

// analyzeBody runs the walk over one function body and then over every
// function literal found inside it, each with a fresh (empty) state.
func (w *lockWalker) analyzeBody(body *ast.BlockStmt, name string) {
	w.fn = name
	w.callerHeld = map[string]bool{}
	if exit := w.block(body.List, newLockState()); exit != nil {
		for _, l := range exit.unreleased() {
			if w.callerHeld[l] {
				continue
			}
			w.report(body.End(), "can end with "+l+" held and no unlock on that path")
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			inner := &lockWalker{prog: w.prog, pkg: w.pkg, out: w.out}
			inner.analyzeBody(lit.Body, name+" (func literal)")
			return false
		}
		return true
	})
}

// block walks a statement list, threading the lock state. A nil result
// means every path through the list terminated (returned).
func (w *lockWalker) block(list []ast.Stmt, st *lockState) *lockState {
	for _, s := range list {
		st = w.stmt(s, st)
		if st == nil {
			return nil
		}
	}
	return st
}

func (w *lockWalker) stmt(s ast.Stmt, st *lockState) *lockState {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if w.lockOp(call, st) {
				return st
			}
		}
		w.checkExprs(x, st)
		return st
	case *ast.AssignStmt, *ast.IncDecStmt, *ast.DeclStmt:
		w.checkExprs(s, st)
		return st
	case *ast.SendStmt:
		w.checkExprs(x.Value, st)
		if names := st.unreleasedOrDeferred(); len(names) > 0 {
			w.report(x.Pos(), "sends on a channel while holding "+strings.Join(names, ", ")+
				" — the send can block every other path through the lock")
		}
		return st
	case *ast.DeferStmt:
		w.deferStmt(x, st)
		return st
	case *ast.ReturnStmt:
		w.checkExprs(s, st)
		for _, l := range st.unreleased() {
			if w.callerHeld[l] {
				continue
			}
			w.report(x.Pos(), "returns with "+l+" held and no unlock on this path")
		}
		return nil
	case *ast.IfStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		w.checkExprs(x.Cond, st)
		thenSt := w.block(x.Body.List, st.clone())
		var elseSt *lockState
		switch e := x.Else.(type) {
		case *ast.BlockStmt:
			elseSt = w.block(e.List, st.clone())
		case *ast.IfStmt:
			elseSt = w.stmt(e, st.clone())
		default:
			elseSt = st.clone() // no else: fall through unchanged
		}
		return merge([]*lockState{thenSt, elseSt})
	case *ast.ForStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		if x.Cond != nil {
			w.checkExprs(x.Cond, st)
		}
		w.block(x.Body.List, st.clone()) // body findings; loop may run zero times
		return st
	case *ast.RangeStmt:
		w.checkExprs(x.X, st)
		w.block(x.Body.List, st.clone())
		return st
	case *ast.SwitchStmt:
		if x.Init != nil {
			st = w.stmt(x.Init, st)
		}
		if x.Tag != nil {
			w.checkExprs(x.Tag, st)
		}
		return w.caseBodies(x.Body, st, true)
	case *ast.TypeSwitchStmt:
		return w.caseBodies(x.Body, st, true)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			if names := st.unreleasedOrDeferred(); len(names) > 0 {
				w.report(x.Pos(), "blocks in a select (no default) while holding "+strings.Join(names, ", "))
			}
		}
		var exits []*lockState
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				exits = append(exits, w.block(cc.Body, st.clone()))
			}
		}
		if len(exits) == 0 {
			return st
		}
		return merge(exits)
	case *ast.BlockStmt:
		return w.block(x.List, st)
	case *ast.LabeledStmt:
		return w.stmt(x.Stmt, st)
	case *ast.BranchStmt:
		return nil // break/continue/goto end this path conservatively
	case *ast.GoStmt:
		return st // spawning is non-blocking; the literal is analyzed separately
	default:
		return st
	}
}

// caseBodies merges the exit states of a switch's cases; withFallthrough
// adds the entry state (no case may match when there is no default).
func (w *lockWalker) caseBodies(body *ast.BlockStmt, st *lockState, withEntry bool) *lockState {
	var exits []*lockState
	hasDefault := false
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			w.checkExprs(e, st)
		}
		exits = append(exits, w.block(cc.Body, st.clone()))
	}
	if withEntry && !hasDefault {
		exits = append(exits, st.clone())
	}
	if len(exits) == 0 {
		return st
	}
	return merge(exits)
}

// unreleasedOrDeferred lists every held lock, deferred or not — a
// deferred unlock still means the lock is held right now.
func (s *lockState) unreleasedOrDeferred() []string {
	var names []string
	for k := range s.held {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// lockOp handles x.mu.Lock()/Unlock() calls; reports double-locks.
// Returns true if the call was a lock operation.
func (w *lockWalker) lockOp(call *ast.CallExpr, st *lockState) bool {
	recv, op := lockCallTarget(w.pkg, call)
	if recv == "" {
		return false
	}
	switch op {
	case "Lock", "RLock":
		if _, held := st.held[recv]; held {
			w.report(call.Pos(), "acquires "+recv+" which is already held on this path (self-deadlock)")
		}
		st.held[recv] = call.Pos()
	case "Unlock", "RUnlock":
		if _, held := st.held[recv]; !held {
			// First touch is a release: the caller holds this lock by
			// contract, so re-held exits are part of that contract.
			w.callerHeld[recv] = true
		}
		delete(st.held, recv)
		// A deferred unlock stays scheduled: the drop-and-retake pattern
		// (unlock around a slow call, relock, rely on the defer at exit)
		// still unlocks every path.
	}
	return true
}

// deferStmt recognizes `defer x.mu.Unlock()` and `defer func() { ...
// x.mu.Unlock() ... }()` as scheduled unlocks: the lock stays held for
// the rest of the function but no longer counts as leaked at exits.
func (w *lockWalker) deferStmt(d *ast.DeferStmt, st *lockState) {
	if recv, op := lockCallTarget(w.pkg, d.Call); recv != "" && (op == "Unlock" || op == "RUnlock") {
		st.deferred[recv] = true
		return
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if recv, op := lockCallTarget(w.pkg, call); recv != "" && (op == "Unlock" || op == "RUnlock") {
					st.deferred[recv] = true
				}
			}
			return true
		})
	}
}

// lockCallTarget resolves a call to (canonical receiver expr, op) when
// the callee is Lock/RLock/Unlock/RUnlock on a sync.Mutex or RWMutex.
func lockCallTarget(pkg *Package, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	t := pkg.Info.Types[sel.X].Type
	if t == nil {
		return "", ""
	}
	switch typeName(t) {
	case "sync.Mutex", "sync.RWMutex":
	default:
		return "", ""
	}
	return exprKey(sel.X), op
}

// exprKey renders a lock receiver expression canonically ("r.mu",
// "s.shards[i].mu" collapses to its printed form).
func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprKey(x.X)
	case *ast.StarExpr:
		return exprKey(x.X)
	case *ast.IndexExpr:
		return exprKey(x.X) + "[" + exprKey(x.Index) + "]"
	case *ast.BasicLit:
		return x.Value
	case *ast.CallExpr:
		return callName(x) + "()"
	default:
		return "?"
	}
}

// checkExprs scans one statement or expression (without descending into
// nested statements or function literals) for blocking operations
// performed while locks are held.
func (w *lockWalker) checkExprs(n ast.Node, st *lockState) {
	held := st.unreleasedOrDeferred()
	if len(held) == 0 {
		return
	}
	ast.Inspect(n, func(nn ast.Node) bool {
		switch x := nn.(type) {
		case *ast.FuncLit:
			return false // runs later, with its own state
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.report(x.Pos(), "receives from a channel while holding "+strings.Join(held, ", "))
			}
		case *ast.CallExpr:
			w.checkBlockingCall(x, held)
		}
		return true
	})
}

// checkBlockingCall reports calls that can block for a network round
// trip or an unbounded wait while locks are held.
func (w *lockWalker) checkBlockingCall(call *ast.CallExpr, held []string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	heldList := strings.Join(held, ", ")
	// time.Sleep under a lock.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := w.pkg.Info.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Path() == "time" && name == "Sleep" {
				w.report(call.Pos(), "sleeps while holding "+heldList)
			}
			return // other package-level calls are out of scope
		}
	}
	recvType := w.pkg.Info.Types[sel.X].Type
	// WaitGroup.Wait blocks; sync.Cond.Wait releases the lock by
	// contract and is the one blessed blocking wait under a mutex.
	if name == "Wait" && recvType != nil && typeName(recvType) == "sync.WaitGroup" {
		w.report(call.Pos(), "waits on a WaitGroup while holding "+heldList)
		return
	}
	if !blockingClientNames[name] {
		return
	}
	// Only dynamic dispatch (an interface receiver may be a TCP client)
	// and explicit client types count as round trips; a concrete
	// in-process type (e.g. *Broker) is a same-process call whose cost
	// is bounded by its own critical sections.
	if recvType == nil {
		return
	}
	if !types.IsInterface(recvType.Underlying()) {
		tn := typeName(recvType)
		if !strings.Contains(tn[strings.LastIndexByte(tn, '.')+1:], "Client") &&
			!strings.Contains(tn[strings.LastIndexByte(tn, '.')+1:], "Consumer") {
			return
		}
	}
	w.report(call.Pos(), "calls "+callName(call)+" (a blocking client round trip) while holding "+heldList)
}

// checkLockCopies flags by-value movement of lock-bearing types: value
// receivers, value parameters, and plain assignments that copy an
// existing lock-bearing value.
func checkLockCopies(prog *Program, pkg *Package, fn *ast.FuncDecl, out *[]Finding) {
	report := func(pos token.Pos, what, tname string) {
		*out = append(*out, Finding{
			Pos:      prog.Fset.Position(pos),
			Analyzer: "lockdiscipline",
			Message:  what + " copies " + tname + " which contains a mutex; use a pointer",
		})
	}
	if fn.Recv != nil {
		for _, f := range fn.Recv.List {
			if t := pkg.Info.Types[f.Type].Type; t != nil && typeContainsLock(t, nil) {
				report(f.Pos(), "receiver of "+fn.Name.Name, t.String())
			}
		}
	}
	if fn.Type.Params != nil {
		for _, f := range fn.Type.Params.List {
			if t := pkg.Info.Types[f.Type].Type; t != nil && typeContainsLock(t, nil) {
				report(f.Pos(), "parameter of "+fn.Name.Name, t.String())
			}
		}
	}
	if fn.Body == nil {
		return
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if !copiesExistingValue(rhs) {
				continue
			}
			if t := pkg.Info.Types[rhs].Type; t != nil && typeContainsLock(t, nil) {
				report(as.Lhs[i].Pos(), "assignment in "+fn.Name.Name, t.String())
			}
		}
		return true
	})
}

// copiesExistingValue reports whether the expression reads an existing
// value (as opposed to constructing a fresh one, which is
// initialization, not a copy).
func copiesExistingValue(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name != "nil"
	case *ast.SelectorExpr, *ast.IndexExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.ParenExpr:
		return copiesExistingValue(x.X)
	default:
		return false
	}
}

// typeContainsLock reports whether a type directly embeds lock state:
// sync.Mutex/RWMutex itself, or a struct/array containing one. Pointers,
// slices, and maps reference rather than contain.
func typeContainsLock(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return false // a pointer references the lock; copying it is fine
	}
	switch typeName(t) {
	case "sync.Mutex", "sync.RWMutex":
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeContainsLock(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return typeContainsLock(u.Elem(), seen)
	}
	return false
}
