package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicMix reports variables that live under two synchronization
// regimes at once: updated through the function-style sync/atomic API
// (atomic.AddInt64(&x.f, ...)) in one place and read or written as a
// plain variable somewhere else. The atomic half promises lock-free
// readers a coherent value; the plain half tears that promise — the
// race detector only catches it when both sides happen to run in the
// same test. Pick one regime per variable: all-atomic (prefer the typed
// atomic.Int64 wrappers, which make mixing a compile error) or
// all-mutex.
//
// Justified by (CHANGES.md, "cad3-vet v2"): regimes the race detector
// rarely sees mixed. No defect found.
var AtomicMix = &Analyzer{
	Name:   "atomicmix",
	Doc:    "a variable is either atomic everywhere or lock-guarded everywhere, never both",
	RunPkg: runAtomicMix,
}

// atomicMixPkgs are the packages with lock-free fast paths (matched on
// the final import-path element).
var atomicMixPkgs = map[string]bool{
	"stream": true, "flow": true, "obsv": true, "city": true,
}

func runAtomicMix(prog *Program, pkg *Package) []Finding {
	if !atomicMixPkgs[pkgBase(pkg.Path)] {
		return nil
	}
	type access struct {
		pos  token.Pos
		expr string
	}
	atomicUse := map[types.Object]access{} // first atomic use per variable
	plainUse := map[types.Object][]access{}
	inAtomicArg := map[ast.Node]bool{} // selector/ident nodes consumed by an atomic call

	// Pass 1: find sync/atomic calls and record the variables they target.
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pkg.Info.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				obj, node := resolveVar(pkg, un.X)
				if obj == nil {
					continue
				}
				inAtomicArg[node] = true
				if _, seen := atomicUse[obj]; !seen {
					atomicUse[obj] = access{pos: un.Pos(), expr: exprKey(un.X)}
				}
			}
			return true
		})
	}
	if len(atomicUse) == 0 {
		return nil
	}

	// Pass 2: every other access to those variables is a plain access.
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if inAtomicArg[n] {
				return false
			}
			var obj types.Object
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if inAtomicArg[x] {
					return false
				}
				if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok {
					obj = v
				}
			case *ast.Ident:
				if v, ok := pkg.Info.Uses[x].(*types.Var); ok {
					obj = v
				}
			default:
				return true
			}
			if obj == nil {
				return true
			}
			if _, isAtomic := atomicUse[obj]; isAtomic {
				plainUse[obj] = append(plainUse[obj], access{pos: n.Pos(), expr: obj.Name()})
			}
			if _, ok := n.(*ast.SelectorExpr); ok {
				return false // don't double-count the Sel ident
			}
			return true
		})
	}

	var objs []types.Object
	for obj := range plainUse {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Pos() < objs[j].Pos() })

	var out []Finding
	for _, obj := range objs {
		a := atomicUse[obj]
		for _, p := range plainUse[obj] {
			out = append(out, Finding{
				Pos:      prog.Fset.Position(p.pos),
				Analyzer: "atomicmix",
				Message: obj.Name() + " is accessed non-atomically here but updated via sync/atomic at " +
					prog.Fset.Position(a.pos).String() + "; use one regime (typed atomics or a mutex), not both",
			})
		}
	}
	return out
}

// resolveVar maps &x.f or &x to the variable object it addresses and
// the AST node carrying the reference.
func resolveVar(pkg *Package, e ast.Expr) (types.Object, ast.Node) {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if v, ok := pkg.Info.Uses[x.Sel].(*types.Var); ok {
			return v, x
		}
	case *ast.Ident:
		if v, ok := pkg.Info.Uses[x].(*types.Var); ok {
			return v, x
		}
	case *ast.ParenExpr:
		return resolveVar(pkg, x.X)
	case *ast.IndexExpr:
		return resolveVar(pkg, x.X)
	}
	return nil, nil
}
