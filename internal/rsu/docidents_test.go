package rsu

// Doc-identifier conformance: every Go name the reader-facing documents
// put in backticks as `pkg.Name` or `pkg.Type.Member`, with pkg one of the
// repo's own packages, must exist in that package's source. A deletion
// that leaves a stale name in a document then fails here, beside the
// metric inventory's check. ROADMAP.md and CHANGES.md record history and
// are not checked.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// checkedDocs are the documents whose identifiers must resolve.
var checkedDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "OBSERVABILITY.md", "SCENARIOS.md"}

// docIdentRe matches a whole backticked span naming `pkg.Exported` or
// `pkg.Type.Member`, optionally followed by a call's parentheses.
var docIdentRe = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?(?:\\([^`]*\\))?`")

// docRef is one backticked reference: pkg.Name, or pkg.Name.Member.
type docRef struct {
	pkg, name, member string
}

func (r docRef) String() string {
	if r.member == "" {
		return r.pkg + "." + r.name
	}
	return r.pkg + "." + r.name + "." + r.member
}

// pkgDecls is what one package declares: its top-level names and, per
// type, its methods and fields (interface methods included).
type pkgDecls struct {
	top     map[string]bool
	members map[string]map[string]bool
}

func (d *pkgDecls) addMember(typ, member string) {
	if d.members[typ] == nil {
		d.members[typ] = make(map[string]bool)
	}
	d.members[typ][member] = true
}

// parsePkgDecls parses the Go files of dir, test files included: the
// documents also name fuzzers and tests.
func parsePkgDecls(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	d := &pkgDecls{top: make(map[string]bool), members: make(map[string]map[string]bool)}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
					continue
				}
				if typ := receiverType(decl.Recv.List[0].Type); typ != "" {
					d.addMember(typ, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					case *ast.TypeSpec:
						d.top[spec.Name.Name] = true
						d.addTypeMembers(spec.Name.Name, spec.Type)
					}
				}
			}
		}
	}
	return d
}

// addTypeMembers records a struct's fields or an interface's methods.
func (d *pkgDecls) addTypeMembers(typ string, expr ast.Expr) {
	var fields *ast.FieldList
	switch expr := expr.(type) {
	case *ast.StructType:
		fields = expr.Fields
	case *ast.InterfaceType:
		fields = expr.Methods
	default:
		return
	}
	for _, f := range fields.List {
		if len(f.Names) == 0 {
			if name := receiverType(f.Type); name != "" {
				d.addMember(typ, name) // embedded: named by its type
			}
			continue
		}
		for _, n := range f.Names {
			d.addMember(typ, n.Name)
		}
	}
}

// receiverType names the type of a receiver or embedded field: T, *T,
// T[P], pkg.T.
func receiverType(expr ast.Expr) string {
	switch expr := expr.(type) {
	case *ast.Ident:
		return expr.Name
	case *ast.StarExpr:
		return receiverType(expr.X)
	case *ast.IndexExpr:
		return receiverType(expr.X)
	case *ast.SelectorExpr:
		return expr.Sel.Name
	}
	return ""
}

// docIndex maps a package name to its declarations: every directory
// directly under internal/ and cmd/, and the root facade as cad3.
func docIndex(t *testing.T, root string) map[string]*pkgDecls {
	t.Helper()
	idx := map[string]*pkgDecls{"cad3": parsePkgDecls(t, root)}
	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(filepath.Join(root, parent))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				idx[e.Name()] = parsePkgDecls(t, filepath.Join(root, parent, e.Name()))
			}
		}
	}
	return idx
}

// docRefs returns the references in text whose package idx knows.
func docRefs(text string, idx map[string]*pkgDecls) []docRef {
	var refs []docRef
	for _, m := range docIdentRe.FindAllStringSubmatch(text, -1) {
		if idx[m[1]] != nil {
			refs = append(refs, docRef{pkg: m[1], name: m[2], member: m[3]})
		}
	}
	return refs
}

// resolves reports whether the package declares what r names.
func resolves(r docRef, idx map[string]*pkgDecls) bool {
	d := idx[r.pkg]
	if r.member == "" {
		return d.top[r.name]
	}
	return d.top[r.name] && d.members[r.name][r.member]
}

// TestDocIdentifiersExist fails when a checked document names a
// package-qualified identifier the package does not declare. Its first
// cases hold the resolver itself to fixtures, made-up names included.
func TestDocIdentifiersExist(t *testing.T) {
	root := filepath.Join("..", "..")
	idx := docIndex(t, root)

	fixtures := []struct {
		text string
		refs int
		ok   bool
	}{
		{"the detector `core.CAD3`", 1, true},
		{"call `core.CAD3.Detect(rec, prior)`", 1, true},
		{"the field `rsu.Config.Client`", 1, true},
		{"the facade `cad3.BuildScenario`", 1, true},
		{"`stream.Client.FetchEach` on the interface", 1, true},
		{"a made-up `core.NoSuchDetector`", 1, false},
		{"a made-up member `core.CAD3.NoSuchMethod`", 1, false},
		{"a made-up model `mlkit.NoSuchModel`", 1, false},
		{"not ours: `sync.Pool`, `time.Now()`", 0, true},
		{"not a bare name: `go test ./internal/core`", 0, true},
	}
	for _, fx := range fixtures {
		refs := docRefs(fx.text, idx)
		if len(refs) != fx.refs {
			t.Errorf("fixture %q: %d references, want %d", fx.text, len(refs), fx.refs)
			continue
		}
		for _, r := range refs {
			if resolves(r, idx) != fx.ok {
				t.Errorf("fixture %q: %s resolves = %v, want %v", fx.text, r, !fx.ok, fx.ok)
			}
		}
	}

	total := 0
	for _, name := range checkedDocs {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range docRefs(string(data), idx) {
			total++
			if !resolves(r, idx) {
				t.Errorf("%s names `%s`, which package %s does not declare", name, r, r.pkg)
			}
		}
	}
	if total == 0 {
		t.Fatal("no package-qualified identifiers found in the checked documents")
	}
	t.Logf("%d package-qualified identifiers checked", total)
}
