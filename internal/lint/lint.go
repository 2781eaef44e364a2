// Package lint is the CAD3 repo-aware static-analysis suite behind
// cmd/cad3-vet. It loads every package in the module with nothing but
// the standard library (go/parser + go/types, stdlib imports resolved
// from $GOROOT source) and runs analyzers that enforce the invariants
// the codebase's hot paths depend on but the compiler cannot check:
//
//   - virtualclock: simulation packages must take an injected clock —
//     no wall-clock time.Now/time.Sleep/timers.
//   - poolsafety: pooled payload buffers must not be read, written, or
//     recycled again after they were handed back to the pool.
//   - wirelayout: the fixed 200 B record frame, the 41 B warning, and
//     the 50 B trace blob at offset 76 are cross-checked against the
//     offsets the codec actually writes, so the constants and the code
//     can never drift apart.
//   - noalloc: functions annotated //cad3:noalloc must not contain
//     allocating constructs (capturing closures, map/slice literals,
//     make/new, string concatenation, interface boxing).
//   - goroutinehygiene: long-running packages must not spawn bare
//     goroutines without lifecycle control (context, stop channel, or
//     WaitGroup).
//   - detorder: determinism-critical packages must not let runtime-
//     randomized orders (map iteration, multi-ready select, global
//     math/rand) leak into transcripts, ledgers, or replicated state.
//   - lockdiscipline: intraprocedural mutex-state tracking — no blocking
//     operation while a lock is held, no double lock on a path, every
//     path to return releases, no copy-by-value of lock-bearing structs.
//   - atomicmix: a field accessed through sync/atomic anywhere must be
//     accessed through sync/atomic everywhere.
//   - wireerrexhaustive: wire client call sites must not discard the v2
//     broker error codes, must not test for codes the called method
//     cannot return, and the analyzer's code table is cross-checked
//     against the sentinels the broker actually encodes.
//   - reach: every function must be reachable from a main package
//     (cmd/*, examples/*, benchmark/); a function only tests call is
//     dead code.
//
// Each analyzer's doc comment names the invariant it holds and the
// CHANGES.md entry that justified it.
//
// Findings print as "file:line: [analyzer] message"; a finding can be
// suppressed with an annotation on the same line or the line above:
//
//	//cad3:allow <analyzer> <reason>
//
// The reason is mandatory — an allow without one is itself a finding.
// See DESIGN.md §11 and §16 for each analyzer's rationale.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Finding is one analyzer hit.
type Finding struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Message  string         `json:"message"`
}

// String formats the finding the way cad3-vet prints it.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one named check over a loaded Program.
type Analyzer struct {
	// Name is the identifier findings carry and //cad3:allow references.
	Name string
	// Doc is a one-line description for cad3-vet -list.
	Doc string
	// Run reports the analyzer's findings over the whole program. Only
	// whole-program analyzers (cross-package state) set it; everything
	// else sets RunPkg instead.
	Run func(prog *Program) []Finding
	// RunPkg reports the analyzer's findings for one package. Per-package
	// analyzers are fanned out across workers.
	RunPkg func(prog *Program, pkg *Package) []Finding
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		VirtualClock,
		PoolSafety,
		WireLayout,
		NoAlloc,
		GoroutineHygiene,
		DetOrder,
		LockDiscipline,
		AtomicMix,
		WireErrExhaustive,
		Reach,
	}
}

// AllowTag is the annotation prefix that suppresses a finding.
const AllowTag = "//cad3:allow"

// Allow is one parsed, well-formed //cad3:allow annotation. The census
// (cad3-vet -allows) prints every Allow with its reason and whether it
// suppressed anything, so suppressions cannot silently accumulate or go
// stale.
type Allow struct {
	Pos      token.Position `json:"pos"`
	Analyzer string         `json:"analyzer"`
	Reason   string         `json:"reason"`
	// Used reports whether the allow matched at least one raw finding in
	// the run that produced it (set by RunCensus, false for an allow
	// that no longer suppresses anything).
	Used bool `json:"used"`
}

// RunCensus executes the analyzers over the program, applies
// //cad3:allow suppressions, and appends a finding for every malformed
// allow (missing analyzer name or reason). Findings come back sorted by
// position, with the suppression census: every well-formed allow
// annotation in the program, marked Used if it suppressed a finding.
// Per-package analyzers are fanned out over GOMAXPROCS workers.
func RunCensus(prog *Program, analyzers []*Analyzer) ([]Finding, []Allow) {
	raw := runParallel(prog, analyzers)
	allows, bad := prog.Allows()
	out := append(filterAllowed(raw, allows), bad...)
	sortFindings(out)
	return out, allows
}

// runParallel fans the analyzer suite out over the program: one job per
// (per-package analyzer, package) pair plus one per whole-program
// analyzer, bounded by GOMAXPROCS workers. Output order is made
// deterministic by the caller's sort.
func runParallel(prog *Program, analyzers []*Analyzer) []Finding {
	var jobs []func() []Finding
	for _, a := range analyzers {
		a := a
		if a.RunPkg != nil {
			for _, pkg := range prog.Pkgs {
				pkg := pkg
				jobs = append(jobs, func() []Finding { return a.RunPkg(prog, pkg) })
			}
			continue
		}
		jobs = append(jobs, func() []Finding { return a.Run(prog) })
	}
	results := make([][]Finding, len(jobs))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i, j := range jobs {
			results[i] = j()
		}
	} else {
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					results[i] = jobs[i]()
				}
			}()
		}
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	var out []Finding
	for _, r := range results {
		out = append(out, r...)
	}
	return out
}

// sortFindings orders findings by file, line, analyzer, message.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		return out[i].Message < out[j].Message
	})
}

// filterAllowed drops findings covered by a well-formed allow annotation
// for the same analyzer on the finding's line or the line directly
// above, marking each matching allow as used.
func filterAllowed(findings []Finding, allows []Allow) []Finding {
	type key struct {
		file     string
		line     int
		analyzer string
	}
	idx := make(map[key]*Allow, len(allows))
	for i := range allows {
		al := &allows[i]
		idx[key{al.Pos.Filename, al.Pos.Line, al.Analyzer}] = al
	}
	kept := findings[:0]
	for _, f := range findings {
		if al := idx[key{f.Pos.Filename, f.Pos.Line, f.Analyzer}]; al != nil {
			al.Used = true
			continue
		}
		if al := idx[key{f.Pos.Filename, f.Pos.Line - 1, f.Analyzer}]; al != nil {
			al.Used = true
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

// Allows scans every file's comments for //cad3:allow annotations,
// returning the well-formed ones and a finding per malformed one.
func (prog *Program) Allows() ([]Allow, []Finding) {
	var ok []Allow
	var bad []Finding
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, AllowTag) {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					rest := strings.TrimPrefix(c.Text, AllowTag)
					if i := strings.Index(rest, "//"); i >= 0 {
						rest = rest[:i] // a nested comment is not part of the reason
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						bad = append(bad, Finding{
							Pos:      pos,
							Analyzer: "allow",
							Message:  "malformed " + AllowTag + ": need \"" + AllowTag + " <analyzer> <reason>\" — the reason is mandatory",
						})
						continue
					}
					ok = append(ok, Allow{
						Pos:      pos,
						Analyzer: fields[0],
						Reason:   strings.Join(fields[1:], " "),
					})
				}
			}
		}
	}
	sort.Slice(ok, func(i, j int) bool {
		if ok[i].Pos.Filename != ok[j].Pos.Filename {
			return ok[i].Pos.Filename < ok[j].Pos.Filename
		}
		return ok[i].Pos.Line < ok[j].Pos.Line
	})
	return ok, bad
}

// pkgBase returns the last element of an import path — analyzers that
// target specific repo packages (netem, stream, ...) match on it so the
// golden-file testdata packages trigger the same rules.
func pkgBase(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}

// funcDecl finds a top-level function declaration by name in the package.
func (p *Package) funcDecl(name string) *ast.FuncDecl {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, okd := d.(*ast.FuncDecl); okd && fd.Recv == nil && fd.Name.Name == name {
				return fd
			}
		}
	}
	return nil
}
