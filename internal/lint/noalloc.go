package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// NoAlloc enforces the zero-allocation contract on annotated hot-path
// functions. A function whose doc comment contains a line starting with
//
//	//cad3:noalloc
//
// must not contain constructs that reach the allocator:
//
//   - function literals that capture variables (a closure allocates its
//     environment on every evaluation);
//   - map literals, map/chan make, slice literals and slice make —
//     except the append(buf, make([]T, n)...) extension pattern, which
//     the compiler recognizes and does not materialize;
//   - new(T);
//   - non-constant string concatenation and string<->[]byte conversions;
//   - fmt.* calls and errors.New (both always allocate);
//   - implicit interface conversions at call boundaries (boxing), except
//     of pointer-shaped values — a pointer, func, map, chan or
//     unsafe.Pointer is stored in the interface word as it is;
//   - go statements (a goroutine allocates its stack).
var NoAlloc = &Analyzer{
	Name:   "noalloc",
	Doc:    "//cad3:noalloc functions must not contain allocating constructs",
	RunPkg: runNoAlloc,
}

// NoAllocTag marks a function as allocation-free in its doc comment.
const NoAllocTag = "//cad3:noalloc"

func runNoAlloc(prog *Program, pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if hasNoAllocTag(fn.Doc) {
				c := &allocChecker{prog: prog, pkg: pkg, fn: fn, out: &out}
				c.check()
			}
		}
	}
	return out
}

func hasNoAllocTag(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.HasPrefix(c.Text, NoAllocTag) {
			return true
		}
	}
	return false
}

type allocChecker struct {
	prog *Program
	pkg  *Package
	fn   *ast.FuncDecl
	out  *[]Finding
	// extensionMakes are make(...) calls inside append(x, make(...)...) —
	// the compiler-recognized no-allocation extension idiom.
	extensionMakes map[*ast.CallExpr]bool
}

func (c *allocChecker) report(pos token.Pos, msg string) {
	*c.out = append(*c.out, Finding{
		Pos:      c.prog.Fset.Position(pos),
		Analyzer: "noalloc",
		Message:  c.fn.Name.Name + " is //cad3:noalloc but " + msg,
	})
}

func (c *allocChecker) check() {
	c.extensionMakes = map[*ast.CallExpr]bool{}
	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || calleeName(call) != "append" || call.Ellipsis == token.NoPos || len(call.Args) != 2 {
			return true
		}
		if mk, ok := call.Args[1].(*ast.CallExpr); ok && calleeName(mk) == "make" {
			c.extensionMakes[mk] = true
		}
		return true
	})

	ast.Inspect(c.fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if caps := capturedVars(c.pkg, x); len(caps) > 0 {
				c.report(x.Pos(), "contains a closure capturing "+strings.Join(caps, ", ")+" (allocates its environment per call)")
			}
			return true
		case *ast.GoStmt:
			c.report(x.Pos(), "spawns a goroutine (allocates a stack)")
		case *ast.CompositeLit:
			t := c.pkg.Info.Types[x].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				c.report(x.Pos(), "contains a map literal (allocates)")
			case *types.Slice:
				c.report(x.Pos(), "contains a slice literal (allocates)")
			}
		case *ast.CallExpr:
			c.checkCall(x)
		case *ast.BinaryExpr:
			if x.Op != token.ADD {
				return true
			}
			tv := c.pkg.Info.Types[ast.Expr(x)]
			if tv.Value != nil {
				return true // constant-folded: free
			}
			if t := tv.Type; t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					c.report(x.Pos(), "concatenates strings at runtime (allocates)")
				}
			}
		}
		return true
	})
}

func (c *allocChecker) checkCall(call *ast.CallExpr) {
	// Conversions: T(x) where the callee is a type, not a function.
	if tv, ok := c.pkg.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		from := c.pkg.Info.Types[call.Args[0]].Type
		to := tv.Type
		if from != nil && isStringByteConversion(from, to) {
			c.report(call.Pos(), "converts between string and []byte (copies and allocates)")
		}
		return
	}
	switch calleeName(call) {
	case "make":
		if c.extensionMakes[call] {
			return
		}
		c.report(call.Pos(), "calls make (allocates); pool or preallocate the buffer instead")
		return
	case "new":
		if tv, ok := c.pkg.Info.Types[call.Fun]; !ok || !tv.IsType() {
			c.report(call.Pos(), "calls new (allocates)")
		}
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if obj, isPkg := c.pkg.Info.Uses[id].(*types.PkgName); isPkg {
				switch obj.Imported().Path() {
				case "fmt":
					c.report(call.Pos(), "calls fmt."+sel.Sel.Name+" (allocates)")
					return
				case "errors":
					if sel.Sel.Name == "New" {
						c.report(call.Pos(), "calls errors.New (allocates)")
						return
					}
				}
			}
		}
	}
	c.checkBoxing(call)
}

// checkBoxing flags arguments implicitly converted to interface
// parameters — the conversion boxes the value on the heap.
func (c *allocChecker) checkBoxing(call *ast.CallExpr) {
	sig := c.callSignature(call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // forwarding a slice: no per-element boxing
			}
			last := params.At(params.Len() - 1).Type()
			if sl, ok := last.(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if _, isTypeParam := pt.(*types.TypeParam); isTypeParam {
			continue
		}
		at := c.pkg.Info.Types[arg]
		if at.Type == nil || at.IsNil() {
			continue
		}
		if _, argIsIface := at.Type.Underlying().(*types.Interface); argIsIface {
			continue
		}
		if pointerShaped(at.Type) {
			continue
		}
		c.report(arg.Pos(), "passes a concrete value where an interface is expected (boxes on the heap)")
	}
}

// pointerShaped reports whether a value of t is one machine pointer that
// an interface holds directly, so converting it allocates nothing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Signature, *types.Map, *types.Chan:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// callSignature resolves the callee's *types.Signature, or nil for
// builtins, type conversions, and unresolved calls.
func (c *allocChecker) callSignature(call *ast.CallExpr) *types.Signature {
	if tv, ok := c.pkg.Info.Types[call.Fun]; ok {
		if tv.IsType() {
			return nil
		}
		if sig, ok := tv.Type.(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// isStringByteConversion reports string <-> []byte/[]rune conversions.
func isStringByteConversion(from, to types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isBytes := func(t types.Type) bool {
		sl, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		b, ok := sl.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(from) && isBytes(to)) || (isBytes(from) && isStr(to))
}

// capturedVars lists the variables a function literal captures from an
// enclosing function scope, sorted by name. Package-level objects and
// the literal's own parameters/locals do not count — only function-local
// variables declared outside the literal (those force an environment
// allocation when the closure value is built).
func capturedVars(pkg *Package, lit *ast.FuncLit) []string {
	pkgScope := pkg.Types.Scope()
	seen := map[string]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if pos := v.Pos(); pos >= lit.Pos() && pos <= lit.End() {
			return true // the literal's own params/locals
		}
		if p := v.Parent(); p == nil || p == pkgScope || p == types.Universe {
			return true // package-level or universe: addressed statically
		}
		if !seen[v.Name()] {
			seen[v.Name()] = true
			names = append(names, v.Name())
		}
		return true
	})
	sort.Strings(names)
	return names
}
