package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoroutineHygiene forbids fire-and-forget goroutines in the packages
// that run for the process's lifetime (the broker/TCP substrate, the RSU
// node and cluster, the flow controllers). A goroutine there must be
// stoppable and awaitable: tied to a context, a stop/done channel, or a
// sync.WaitGroup the owner waits on. A bare `go func` in these packages
// is how shutdown leaks connections and tests leak background work.
var GoroutineHygiene = &Analyzer{
	Name:   "goroutinehygiene",
	Doc:    "long-running packages must not spawn goroutines without lifecycle control",
	RunPkg: runGoroutineHygiene,
}

// goroutinePkgs are the long-running packages (matched on the final
// import-path element).
var goroutinePkgs = map[string]bool{
	"stream": true,
	"rsu":    true,
	"flow":   true,
}

// stopChanNames are identifier names treated as stop-channel evidence.
var stopChanNames = map[string]bool{
	"stop": true, "done": true, "quit": true, "closed": true,
	"closing": true, "shutdown": true, "stopCh": true, "doneCh": true,
}

func runGoroutineHygiene(prog *Program, pkg *Package) []Finding {
	var out []Finding
	if !goroutinePkgs[pkgBase(pkg.Path)] {
		return nil
	}
	for _, file := range pkg.Files {
		// Track the enclosing function body for each go statement so
		// named-function spawns can look for a surrounding WaitGroup.
		var stack []ast.Node
		ast.Inspect(file, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if goHasLifecycle(pkg, g, stack) {
				return true
			}
			out = append(out, Finding{
				Pos:      prog.Fset.Position(g.Pos()),
				Analyzer: "goroutinehygiene",
				Message: "goroutine in long-running package " + strings.Trim(pkgBase(pkg.Path), "/") +
					" has no lifecycle control; tie it to a context, stop channel, or sync.WaitGroup",
			})
			return true
		})
	}
	return out
}

// goHasLifecycle reports whether the spawned goroutine is controllable:
// its body (for func literals) references a context, a stop channel, or
// a WaitGroup Done; or, for named functions/methods, the enclosing
// function registers it with a WaitGroup Add or hands it a context.
func goHasLifecycle(pkg *Package, g *ast.GoStmt, stack []ast.Node) bool {
	if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
		if nodeHasLifecycleEvidence(pkg, lit.Body) {
			return true
		}
		// A literal body with no evidence may still be registered by the
		// enclosing function (wg.Add before `go`).
	}
	// A named function or method declared in this package (e.g. a
	// client's reader goroutine `go c.readLoop()`): resolve the
	// declaration and accept it only if its body carries the evidence —
	// a stop channel, context, or WaitGroup it answers to.
	if decl := resolveSpawnedDecl(pkg, g.Call.Fun); decl != nil && decl.Body != nil {
		if nodeHasLifecycleEvidence(pkg, decl.Body) {
			return true
		}
	}
	// Context handed to the spawned call directly?
	for _, arg := range g.Call.Args {
		if exprIsContext(pkg, arg) {
			return true
		}
	}
	// Enclosing function registers the goroutine with a WaitGroup?
	for i := len(stack) - 1; i >= 0; i-- {
		var body *ast.BlockStmt
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body == nil {
			continue
		}
		if blockCallsWaitGroupAdd(pkg, body) {
			return true
		}
		break // only the nearest enclosing function counts
	}
	return false
}

// resolveSpawnedDecl maps a spawned named function or method back to its
// declaration in the same package (cross-package spawns resolve to nil —
// their hygiene is the defining package's concern).
func resolveSpawnedDecl(pkg *Package, fun ast.Expr) *ast.FuncDecl {
	var id *ast.Ident
	switch x := fun.(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil
	}
	obj, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	pos := obj.Pos()
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Pos() == pos {
				return fd
			}
		}
	}
	return nil
}

// nodeHasLifecycleEvidence looks for ctx/stop-channel/WaitGroup use
// anywhere in the node.
func nodeHasLifecycleEvidence(pkg *Package, node ast.Node) bool {
	found := false
	ast.Inspect(node, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if stopChanNames[x.Name] || exprIsContext(pkg, x) {
				found = true
			}
		case *ast.SelectorExpr:
			if x.Sel.Name == "Done" || x.Sel.Name == "Wait" {
				found = true
			}
			if stopChanNames[x.Sel.Name] {
				found = true
			}
		}
		return !found
	})
	return found
}

// blockCallsWaitGroupAdd reports whether the block calls Add on a
// sync.WaitGroup (the canonical "registered before spawn" shape).
func blockCallsWaitGroupAdd(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Add" {
			return true
		}
		if t := pkg.Info.Types[sel.X].Type; t != nil {
			if named := typeName(t); named == "sync.WaitGroup" {
				found = true
				return false
			}
			// Without full type info, accept any x.Add(...) whose receiver
			// name suggests a WaitGroup.
		}
		if id, ok := sel.X.(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "wg") {
			found = true
		}
		if inner, ok := sel.X.(*ast.SelectorExpr); ok && strings.Contains(strings.ToLower(inner.Sel.Name), "wg") {
			found = true
		}
		return !found
	})
	return found
}

// exprIsContext reports whether the expression's static type is
// context.Context.
func exprIsContext(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.Types[e].Type
	if t == nil {
		if id, ok := e.(*ast.Ident); ok {
			return id.Name == "ctx"
		}
		return false
	}
	return typeName(t) == "context.Context"
}

// typeName renders a (possibly pointer) named type as "pkg.Name".
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return obj.Name()
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
