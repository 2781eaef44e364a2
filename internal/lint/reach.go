package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Reach reports every function and method that no binary can call. The
// roots are main and init of every main package (cmd/*, examples/*,
// benchmark/), every other init, and every package-level var
// initializer. From a reachable declaration, a function becomes
// reachable when the type checker resolves a use of it (a call, a func
// value, a method value or expression); generic functions resolve
// through Origin. Dynamic dispatch is approximated by name: once a named
// type appears in reachable code, each of its methods whose name some
// interface declares becomes reachable, and so do the methods the
// standard library calls through interfaces no user code names.
//
// Tests are not roots: a function only a test calls is dead code and is
// reported. One a test must keep carries //cad3:allow reach <the test>.
// A program with no main package has nothing to judge by and yields no
// findings, so library-only loads (the other analyzers' fixtures) stay
// quiet.
//
// Justified by (CHANGES.md, "reach gate"): its first run found 118
// functions no binary called, two wall-clock loops among them.
var Reach = &Analyzer{
	Name: "reach",
	Doc:  "every function must be reachable from a main package (tests are not roots)",
	Run:  runReach,
}

type reachDecl struct {
	pkg *Package
	fd  *ast.FuncDecl
}

// reacher is the walk's state.
type reacher struct {
	decls  map[*types.Func]reachDecl
	ifaceM map[string]bool       // method names some interface declares
	live   map[*types.Func]bool  // reachable functions
	seen   map[*types.Named]bool // named types that appear in reachable code
	queue  []reachDecl
}

func runReach(prog *Program) []Finding {
	r := &reacher{
		decls: map[*types.Func]reachDecl{},
		// The methods the standard library calls through interfaces user
		// code never names: fmt's Stringer, GoStringer and Formatter,
		// errors.Is/As/Unwrap, and the json and encoding Marshalers.
		ifaceM: map[string]bool{"Error": true, "String": true, "Format": true, "GoString": true,
			"Is": true, "As": true, "Unwrap": true, "MarshalJSON": true, "UnmarshalJSON": true,
			"MarshalText": true, "UnmarshalText": true},
		live: map[*types.Func]bool{},
		seen: map[*types.Named]bool{},
	}
	hasMain := false
	for _, pkg := range prog.Pkgs {
		hasMain = hasMain || pkg.Types.Name() == "main"
		for _, tv := range pkg.Info.Types {
			r.addIface(tv.Type)
		}
		for _, obj := range pkg.Info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				r.addIface(tn.Type())
			}
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						r.decls[fn] = reachDecl{pkg, fd}
					}
				}
			}
		}
	}
	if !hasMain {
		return nil
	}
	for fn, d := range r.decls {
		name := d.fd.Name.Name
		if d.fd.Recv == nil && (name == "init" || name == "main" && d.pkg.Types.Name() == "main") {
			r.mark(fn)
		}
	}
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					r.walk(pkg, gd)
				}
			}
		}
	}
	for len(r.queue) > 0 {
		d := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.walk(d.pkg, d.fd)
	}
	var out []Finding
	for fn, d := range r.decls {
		if r.live[fn] || d.fd.Name.Name == "_" {
			continue
		}
		out = append(out, Finding{
			Pos:      prog.Fset.Position(d.fd.Pos()),
			Analyzer: "reach",
			Message:  fn.FullName() + " is not reachable from any main package (tests are not roots)",
		})
	}
	return out
}

// mark makes fn reachable and queues its declaration, if the program
// has one (functions of the standard library have none).
func (r *reacher) mark(fn *types.Func) {
	fn = fn.Origin()
	if r.live[fn] {
		return
	}
	r.live[fn] = true
	if d, ok := r.decls[fn]; ok {
		r.queue = append(r.queue, d)
	}
}

// walk visits one reachable declaration: every function it names
// becomes reachable, and every type its expressions carry appears.
func (r *reacher) walk(pkg *Package, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pkg.Info.Types[e]; ok {
			r.appear(tv.Type)
		}
		if id, ok := e.(*ast.Ident); ok {
			if fn, ok := pkg.Info.Uses[id].(*types.Func); ok {
				r.mark(fn)
			}
		}
		return true
	})
}

// appear records that values of t exist in reachable code, so the
// methods an interface could dispatch to become reachable.
func (r *reacher) appear(t types.Type) {
	switch u := t.(type) {
	case *types.Named:
		named := u.Origin()
		if r.seen[named] || types.IsInterface(named) {
			return
		}
		r.seen[named] = true
		ms := types.NewMethodSet(types.NewPointer(named))
		for i := 0; i < ms.Len(); i++ {
			if fn := ms.At(i).Obj().(*types.Func); r.ifaceM[fn.Name()] {
				r.mark(fn)
			}
		}
	case *types.Map:
		r.appear(u.Key())
		r.appear(u.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		r.appear(u.Elem())
	}
}

// addIface adds the method names of every interface t mentions: t
// itself, or the parameters and results of a function type (how a
// standard-library interface such as heap.Interface enters the program).
func (r *reacher) addIface(t types.Type) {
	switch u := t.(type) {
	case *types.Signature:
		for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
			for i := 0; i < tup.Len(); i++ {
				r.addIface(tup.At(i).Type())
			}
		}
	case *types.Pointer:
		r.addIface(u.Elem())
	case *types.Slice:
		r.addIface(u.Elem())
	default:
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				r.ifaceM[it.Method(i).Name()] = true
			}
		}
	}
}
