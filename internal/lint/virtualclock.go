package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// VirtualClock forbids wall-clock time in the simulation packages. The
// Figure 6 latency numbers and the scenario corpus transcripts are only
// reproducible because every component in those packages runs on an
// injected clock (netem.Simulator.Now, Config.Now hooks, injected Sleep
// functions). One stray time.Now or time.Sleep silently re-couples a
// "deterministic" experiment to the host scheduler.
//
// Pure time constructors and arithmetic (time.Date, time.UnixMilli,
// time.Duration math) are fine — only the functions that read or wait on
// the wall clock are banned.
//
// Justified by (CHANGES.md, "cad3-vet static analysis suite"): it found
// chaos.Client delaying on the wall clock.
var VirtualClock = &Analyzer{
	Name:   "virtualclock",
	Doc:    "simulation packages must take an injected clock — no time.Now/Sleep/timers",
	RunPkg: runVirtualClock,
}

// virtualClockPkgs are the simulation packages (matched on the final
// import-path element).
var virtualClockPkgs = map[string]bool{
	"experiments": true,
	"netem":       true,
	"trace":       true,
	"chaos":       true,
	"scenario":    true,
	"city":        true,
}

// wallClockFuncs are the time-package functions that read or wait on the
// wall clock.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"NewTimer":  true,
	"NewTicker": true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"Since":     true,
	"Until":     true,
}

func runVirtualClock(prog *Program, pkg *Package) []Finding {
	var out []Finding
	if !virtualClockPkgs[pkgBase(pkg.Path)] {
		return nil
	}
	for _, file := range pkg.Files {
		timeNames := timeImportNames(file)
		if len(timeNames) == 0 {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !timeNames[id.Name] || !wallClockFuncs[sel.Sel.Name] {
				return true
			}
			// Only flag references through the package, not through a
			// local variable that shadows the import (Uses resolves the
			// qualifier to a PkgName for real package references).
			if obj, known := pkg.Info.Uses[id]; known {
				if _, isPkg := obj.(*types.PkgName); !isPkg {
					return true
				}
			}
			out = append(out, Finding{
				Pos:      prog.Fset.Position(sel.Pos()),
				Analyzer: "virtualclock",
				Message: "wall-clock time." + sel.Sel.Name + " in simulation package " +
					strconv.Quote(pkgBase(pkg.Path)) + "; take an injected clock (Now func / Sleep hook) instead",
			})
			return true
		})
	}
	return out
}

// timeImportNames returns the local names under which the file imports
// the time package (usually just "time"; honors renamed imports, reports
// nothing for "_" and none if the file does not import time).
func timeImportNames(file *ast.File) map[string]bool {
	names := map[string]bool{}
	for _, imp := range file.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || path != "time" {
			continue
		}
		name := "time"
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == "_" || name == "." {
			continue
		}
		names[name] = true
	}
	return names
}
