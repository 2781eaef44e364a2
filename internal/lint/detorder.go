package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// DetOrder forbids runtime-randomized orders in determinism-critical
// code. The scenario engine's transcripts, the city driver's settlement
// ledger, and the replicated broker's control plane are byte-compared
// and replayed across runs; their correctness claims assume that the
// same seed produces the same bytes. Three constructs silently break
// that:
//
//   - ranging over a map: Go randomizes iteration order per run, so any
//     loop whose effects are not order-insensitive diverges between
//     replays;
//   - a select with two or more comm cases: the runtime picks among
//     ready cases pseudo-randomly, racing channels against each other;
//   - the global math/rand functions: they draw from shared process
//     state seeded outside the experiment, so replays cannot pin them.
//
// A map range is accepted when its body is provably order-insensitive:
// commutative accumulation (+=, counters' Inc/Add/Observe, min/max
// tracking guarded by a comparison on the tracked variable, saturating
// boolean flags), rewrites into another map keyed by the loop key, and
// the sorted-key emission idiom (append the keys, sort them after the
// loop, iterate the sorted slice). Everything else reports; genuinely
// order-free sinks the analysis cannot see take a //cad3:allow with the
// reason.
//
// Justified by (CHANGES.md, "cad3-vet v2"): byte-compared transcripts
// and ledgers. No defect found.
var DetOrder = &Analyzer{
	Name:   "detorder",
	Doc:    "determinism-critical packages must not leak map/select/global-rand ordering",
	RunPkg: runDetOrder,
}

// detOrderPkgs are the fully determinism-critical packages (matched on
// the final import-path element): everything in them feeds a transcript,
// a ledger, or a report that replays byte-identically.
var detOrderPkgs = map[string]bool{
	"scenario":    true,
	"city":        true,
	"experiments": true,
}

// detOrderStreamFiles are the replication-path files of internal/stream:
// elections, replica role pushes, snapshot bootstrap, group rebalance
// and cross-shard summary routing all mutate replicated state that must
// converge identically on every node and every replay.
var detOrderStreamFiles = map[string]bool{
	"replication.go": true,
	"replicaset.go":  true,
	"group.go":       true,
	"snapshot.go":    true,
	"router.go":      true,
}

// detOrderInScope reports whether a file participates in the analysis.
func detOrderInScope(pkg *Package, file *ast.File, fset *token.FileSet) bool {
	base := pkgBase(pkg.Path)
	if detOrderPkgs[base] {
		return true
	}
	if base == "stream" {
		name := filepath.Base(fset.Position(file.Pos()).Filename)
		return detOrderStreamFiles[name]
	}
	return false
}

// commutativeCallNames are method names whose calls are accepted inside
// a map-range body: metric handles and accumulators whose aggregate
// result does not depend on call order.
var commutativeCallNames = map[string]bool{
	"Inc": true, "Add": true, "Dec": true, "Observe": true,
}

func runDetOrder(prog *Program, pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		if !detOrderInScope(pkg, file, prog.Fset) {
			continue
		}
		// Track enclosing function bodies so the sorted-emission rule can
		// look for a sort call after the loop.
		var fnStack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				if len(fnStack) > 0 {
					fnStack = fnStack[:len(fnStack)-1]
				}
				return true
			}
			switch x := n.(type) {
			case *ast.FuncDecl, *ast.FuncLit:
				fnStack = append(fnStack, n)
				return true
			case *ast.RangeStmt:
				fnStack = append(fnStack, n) // keep push/pop balanced
				t := pkg.Info.Types[x.X].Type
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				c := &detOrderChecker{pkg: pkg}
				c.addLoopVar(x.Key)
				ok, reason, pos := c.stmts(x.Body.List)
				if ok && len(c.appendTargets) > 0 {
					ok, reason, pos = c.checkSortedEmission(x, enclosingFuncBody(fnStack))
				}
				if !ok {
					if pos == token.NoPos {
						pos = x.Pos()
					}
					out = append(out, Finding{
						Pos:      prog.Fset.Position(pos),
						Analyzer: "detorder",
						Message: "map iteration order is randomized per run and this loop is order-dependent (" +
							reason + ") in determinism-critical package " + strconv.Quote(pkgBase(pkg.Path)) +
							"; sort the keys first or make the body commutative",
					})
				}
				return true
			case *ast.SelectStmt:
				fnStack = append(fnStack, n)
				ready := 0
				for _, cl := range x.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
						ready++
					}
				}
				if ready >= 2 {
					out = append(out, Finding{
						Pos:      prog.Fset.Position(x.Pos()),
						Analyzer: "detorder",
						Message: fmt.Sprintf("select with %d comm cases races channels — the runtime picks among ready cases "+
							"pseudo-randomly; determinism-critical code must drain one channel at a time", ready),
					})
				}
				return true
			case *ast.SelectorExpr:
				fnStack = append(fnStack, n)
				if name, bad := globalRandUse(pkg, x); bad {
					out = append(out, Finding{
						Pos:      prog.Fset.Position(x.Pos()),
						Analyzer: "detorder",
						Message: "global math/rand." + name + " draws from shared process-wide state seeded outside the " +
							"experiment; thread a seeded *rand.Rand through the config instead",
					})
				}
				return true
			default:
				fnStack = append(fnStack, n)
				return true
			}
		})
	}
	return out
}

// enclosingFuncBody returns the innermost function body on the stack
// (excluding the node just pushed).
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 2; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

// globalRandUse reports a reference to a global math/rand function.
// The explicit constructors (New, NewSource, NewZipf) are the approved
// seeded path and pass.
func globalRandUse(pkg *Package, sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := pkg.Info.Uses[id].(*types.PkgName)
	if !ok {
		return "", false
	}
	path := pn.Imported().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return "", false
	}
	// Only function references touch the global generator; type
	// references (*rand.Rand fields and params) are the seeded idiom.
	if _, isFunc := pkg.Info.Uses[sel.Sel].(*types.Func); !isFunc {
		return "", false
	}
	switch sel.Sel.Name {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return "", false
	}
	return sel.Sel.Name, true
}

// detOrderChecker decides whether a map-range body is order-insensitive.
type detOrderChecker struct {
	pkg *Package
	// loopKeys are the key objects of the map ranges in scope: an index
	// write m2[k] keyed by one of them is a permutation, not an order.
	loopKeys map[types.Object]bool
	// conds are the if/switch conditions enclosing the current statement;
	// an assignment to a variable read by one of them is min/max/first
	// tracking (guarded update), which is order-insensitive for the
	// extremum the guard computes.
	conds []ast.Expr
	// appendTargets are outer slices appended to inside the loop; they
	// are only legal under the sorted-emission idiom, checked after the
	// body scan.
	appendTargets map[types.Object]bool
}

func (c *detOrderChecker) addLoopVar(e ast.Expr) {
	if c.loopKeys == nil {
		c.loopKeys = map[types.Object]bool{}
	}
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		if o := c.pkg.Info.Defs[id]; o != nil {
			c.loopKeys[o] = true
		}
	}
}

// stmts checks a statement list; the first order-dependent construct
// stops the scan.
func (c *detOrderChecker) stmts(list []ast.Stmt) (bool, string, token.Pos) {
	for _, s := range list {
		if ok, reason, pos := c.stmt(s); !ok {
			return false, reason, pos
		}
	}
	return true, "", token.NoPos
}

func (c *detOrderChecker) stmt(s ast.Stmt) (bool, string, token.Pos) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		return c.exprStmt(x)
	case *ast.IncDecStmt:
		return true, "", token.NoPos
	case *ast.AssignStmt:
		return c.assign(x)
	case *ast.DeclStmt:
		return true, "", token.NoPos
	case *ast.IfStmt:
		c.conds = append(c.conds, x.Cond)
		defer func() { c.conds = c.conds[:len(c.conds)-1] }()
		if x.Init != nil {
			if ok, reason, pos := c.stmt(x.Init); !ok {
				return false, reason, pos
			}
		}
		if ok, reason, pos := c.stmts(x.Body.List); !ok {
			return false, reason, pos
		}
		switch e := x.Else.(type) {
		case *ast.BlockStmt:
			return c.stmts(e.List)
		case *ast.IfStmt:
			return c.stmt(e)
		}
		return true, "", token.NoPos
	case *ast.ForStmt:
		if x.Cond != nil {
			c.conds = append(c.conds, x.Cond)
			defer func() { c.conds = c.conds[:len(c.conds)-1] }()
		}
		return c.stmts(x.Body.List)
	case *ast.RangeStmt:
		// A nested range: over a map, its key joins the keyed-write set
		// (permutation composition); over a slice it is just a loop.
		if t := c.pkg.Info.Types[x.X].Type; t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				c.addLoopVar(x.Key)
			}
		}
		return c.stmts(x.Body.List)
	case *ast.SwitchStmt:
		for _, cl := range x.Body.List {
			cc, ok := cl.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, e := range cc.List {
				c.conds = append(c.conds, e)
			}
			okB, reason, pos := c.stmts(cc.Body)
			c.conds = c.conds[:len(c.conds)-len(cc.List)]
			if !okB {
				return false, reason, pos
			}
		}
		return true, "", token.NoPos
	case *ast.TypeSwitchStmt:
		for _, cl := range x.Body.List {
			if cc, ok := cl.(*ast.CaseClause); ok {
				if okB, reason, pos := c.stmts(cc.Body); !okB {
					return false, reason, pos
				}
			}
		}
		return true, "", token.NoPos
	case *ast.BlockStmt:
		return c.stmts(x.List)
	case *ast.LabeledStmt:
		return c.stmt(x.Stmt)
	case *ast.BranchStmt:
		if x.Tok == token.GOTO {
			return false, "jumps out with goto", x.Pos()
		}
		return true, "", token.NoPos // continue/break: captures are caught by the assignment rules
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			if !isConstExpr(c.pkg, r) {
				return false, "returns a value chosen by iteration order", x.Pos()
			}
		}
		return true, "", token.NoPos // returning a constant is the same on every order
	case *ast.SendStmt:
		return false, "sends on a channel in iteration order", x.Pos()
	case *ast.GoStmt:
		return false, "spawns goroutines in iteration order", x.Pos()
	case *ast.DeferStmt:
		return false, "defers calls in iteration order", x.Pos()
	default:
		return false, "contains a construct the analysis cannot prove order-free", s.Pos()
	}
}

func (c *detOrderChecker) exprStmt(x *ast.ExprStmt) (bool, string, token.Pos) {
	call, ok := x.X.(*ast.CallExpr)
	if !ok {
		return false, "evaluates an expression the analysis cannot prove order-free", x.Pos()
	}
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if fun.Name == "delete" {
			return true, "", token.NoPos // a set of deletions commutes
		}
		if fun.Name == "panic" {
			return false, "panics with an order-chosen element", x.Pos()
		}
	case *ast.SelectorExpr:
		if commutativeCallNames[fun.Sel.Name] {
			return true, "", token.NoPos
		}
	}
	return false, "calls " + callName(call) + " whose effects depend on iteration order", x.Pos()
}

func (c *detOrderChecker) assign(x *ast.AssignStmt) (bool, string, token.Pos) {
	switch x.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN,
		token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		return true, "", token.NoPos // commutative accumulation
	case token.SHL_ASSIGN, token.SHR_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN, token.AND_NOT_ASSIGN:
		return false, "accumulates with a non-commutative operator", x.Pos()
	}
	for i, lhs := range x.Lhs {
		if x.Tok == token.DEFINE {
			if id, ok := lhs.(*ast.Ident); ok {
				if o := c.pkg.Info.Defs[id]; o != nil || id.Name == "_" {
					continue // fresh per-iteration variable
				}
			}
		}
		if ok, reason := c.assignTarget(lhs, rhsFor(x, i)); !ok {
			return false, reason, x.Pos()
		}
	}
	return true, "", token.NoPos
}

// rhsFor returns the RHS paired with LHS i (nil for the multi-value
// single-call form).
func rhsFor(x *ast.AssignStmt, i int) ast.Expr {
	if len(x.Rhs) == len(x.Lhs) {
		return x.Rhs[i]
	}
	return nil
}

// assignTarget decides whether one plain-assignment target is
// order-insensitive.
func (c *detOrderChecker) assignTarget(lhs, rhs ast.Expr) (bool, string) {
	switch t := lhs.(type) {
	case *ast.Ident:
		if t.Name == "_" {
			return true, ""
		}
		// s = append(s, ...): candidate sorted-key emission, resolved
		// after the loop scan.
		if call, ok := rhs.(*ast.CallExpr); ok && calleeName(call) == "append" {
			if o := c.objOf(t); o != nil {
				if c.appendTargets == nil {
					c.appendTargets = map[types.Object]bool{}
				}
				c.appendTargets[o] = true
				return true, ""
			}
		}
		// Saturating flag: x = true / x = 0 — same result on any order.
		if rhs != nil && isConstExpr(c.pkg, rhs) {
			return true, ""
		}
		// Guarded extremum: the variable is read by an enclosing
		// condition inside the loop (min/max/first-seen tracking).
		if o := c.objOf(t); o != nil && c.condsMention(o) {
			return true, ""
		}
		return false, "assigns " + t.Name + " a value chosen by iteration order"
	case *ast.IndexExpr:
		// m2[k] = v keyed by the loop key is a permutation of the same
		// writes; any other index depends on the visit order.
		if id, ok := t.Index.(*ast.Ident); ok {
			if o := c.pkg.Info.Uses[id]; o != nil && c.loopKeys[o] {
				return true, ""
			}
		}
		return false, "writes an index not keyed by the loop key"
	default:
		return false, "assigns through a non-local target"
	}
}

func (c *detOrderChecker) objOf(id *ast.Ident) types.Object {
	if o := c.pkg.Info.Uses[id]; o != nil {
		return o
	}
	return c.pkg.Info.Defs[id]
}

// condsMention reports whether any enclosing condition reads the object.
func (c *detOrderChecker) condsMention(o types.Object) bool {
	for _, cond := range c.conds {
		found := false
		ast.Inspect(cond, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && c.pkg.Info.Uses[id] == o {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// checkSortedEmission validates the append-then-sort idiom: every slice
// appended to inside the loop must be passed to a sort call after the
// loop in the same function.
func (c *detOrderChecker) checkSortedEmission(rng *ast.RangeStmt, fnBody *ast.BlockStmt) (bool, string, token.Pos) {
	if fnBody == nil {
		return false, "keys are emitted into a slice the analysis cannot see sorted", rng.Pos()
	}
	for target := range c.appendTargets {
		if !sortedAfter(c.pkg, fnBody, rng.End(), target) {
			return false, "keys are appended to " + target.Name() + " but never sorted after the loop", rng.Pos()
		}
	}
	return true, "", token.NoPos
}

// sortCallNames are the sort entry points accepted by the
// sorted-emission rule, per qualifying package.
var sortCallNames = map[string]map[string]bool{
	"sort": {
		"Strings": true, "Ints": true, "Float64s": true,
		"Slice": true, "SliceStable": true, "Sort": true, "Stable": true,
	},
	"slices": {
		"Sort": true, "SortFunc": true, "SortStableFunc": true,
	},
}

// sortedAfter reports whether the function body contains a sort call on
// the target object positioned after the loop.
func sortedAfter(pkg *Package, body *ast.BlockStmt, after token.Pos, target types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < after || len(call.Args) == 0 {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			pkgID, ok := fun.X.(*ast.Ident)
			if !ok {
				return true
			}
			names := sortCallNames[pkgID.Name]
			if names == nil || !names[fun.Sel.Name] {
				return true
			}
		case *ast.Ident:
			// A local sort helper (sortCalls(revokes), sortKeys(ids), ...):
			// accept by name — the helper's own body is ordinary code the
			// analyzer checks elsewhere.
			if !strings.Contains(strings.ToLower(fun.Name), "sort") {
				return true
			}
		default:
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && pkg.Info.Uses[id] == target {
			found = true
		}
		return !found
	})
	return found
}

// isConstExpr reports whether the expression is a compile-time constant
// (or nil), so its value cannot depend on iteration order.
func isConstExpr(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return false
	}
	return tv.Value != nil || tv.IsNil()
}

// callName renders a call's target for messages.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "a function"
}
