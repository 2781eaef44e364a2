// Command cad3-vet runs the repo-specific static analyzers in
// internal/lint over the whole module and prints every finding as
//
//	file:line: [analyzer] message
//
// exiting non-zero if anything is found. It enforces the invariants the
// compiler cannot see: simulation packages stay on injected clocks
// (virtualclock), pooled buffers are not touched after recycling
// (poolsafety), the wire-format constants match the bytes the codec
// actually moves (wirelayout), //cad3:noalloc functions stay off the
// allocator (noalloc), long-running packages spawn no fire-and-forget
// goroutines (goroutinehygiene), determinism-critical packages leak no
// runtime-randomized orders (detorder), mutexes follow the lock
// discipline (lockdiscipline), no variable lives under two sync regimes
// (atomicmix), the v2 wire error contract holds at every client call
// site (wireerrexhaustive), and every function is reachable from a main
// package (reach). See DESIGN.md §11 and §16 for the rationale and the
// //cad3:allow escape hatch.
//
// Usage:
//
//	cad3-vet [-list] [-only analyzer,...] [-json] [-allows] [-max-allows n] [dir]
//
// With no directory, the module containing the current directory is
// analyzed. It writes nothing. -json emits the findings and the
// suppression census as one JSON object for CI. -allows prints the
// census human-readably; -max-allows fails the run when the census
// exceeds n, which is how CI keeps the suppression count from growing
// unnoticed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cad3/internal/lint"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cad3-vet:", err)
		os.Exit(2)
	}
}

// jsonReport is the -json output shape.
type jsonReport struct {
	Findings  []lint.Finding `json:"findings"`
	Allows    []lint.Allow   `json:"allows"`
	Packages  int            `json:"packages"`
	ElapsedMS int64          `json:"elapsed_ms"`
}

func run() error {
	list := flag.Bool("list", false, "list analyzers and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	asJSON := flag.Bool("json", false, "emit findings and the allow census as JSON")
	allowsFlag := flag.Bool("allows", false, "print the //cad3:allow suppression census")
	maxAllows := flag.Int("max-allows", -1, "fail if the suppression census exceeds this count (-1: no limit)")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	if *only != "" {
		byName := map[string]*lint.Analyzer{}
		for _, a := range analyzers {
			byName[a.Name] = a
		}
		var picked []*lint.Analyzer
		for _, name := range strings.Split(*only, ",") {
			name = strings.TrimSpace(name)
			a, ok := byName[name]
			if !ok {
				return fmt.Errorf("unknown analyzer %q (use -list)", name)
			}
			picked = append(picked, a)
		}
		analyzers = picked
	}

	dir := "."
	if args := flag.Args(); len(args) > 0 {
		// Accept `./...` for familiarity with go vet; the whole module is
		// always analyzed.
		dir = strings.TrimSuffix(args[0], "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" || dir == "." {
			dir = "."
		}
	}

	start := time.Now()
	root, module, err := lint.FindModuleRoot(dir)
	if err != nil {
		return err
	}
	loader := lint.NewLoader(root, module)
	prog, err := loader.LoadRepo()
	if err != nil {
		return err
	}

	// Type errors mean the analysis ran on a partial picture — surface
	// them as a load failure rather than pretending the tree is clean.
	var typeErrs []string
	for _, pkg := range prog.Pkgs {
		for _, e := range pkg.TypeErrors {
			typeErrs = append(typeErrs, fmt.Sprintf("%s: %v", pkg.Path, e))
		}
	}
	if len(typeErrs) > 0 {
		sort.Strings(typeErrs)
		for _, e := range typeErrs {
			fmt.Fprintln(os.Stderr, e)
		}
		return fmt.Errorf("%d type error(s) while loading — fix the build first", len(typeErrs))
	}

	findings, allows := lint.RunCensus(prog, analyzers)
	elapsed := time.Since(start)

	overLimit := *maxAllows >= 0 && len(allows) > *maxAllows

	if *asJSON {
		var rep jsonReport
		rep.Findings = findings
		if rep.Findings == nil {
			rep.Findings = []lint.Finding{}
		}
		rep.Allows = allows
		if rep.Allows == nil {
			rep.Allows = []lint.Allow{}
		}
		rep.Packages = len(prog.Pkgs)
		rep.ElapsedMS = elapsed.Milliseconds()
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		for _, f := range findings {
			fmt.Println(f.String())
		}
		if *allowsFlag {
			printCensus(root, allows)
		}
	}

	if overLimit {
		fmt.Fprintf(os.Stderr, "cad3-vet: suppression census has %d allows, limit is %d — "+
			"remove a //cad3:allow (or consciously raise the limit in CI)\n", len(allows), *maxAllows)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "cad3-vet: %d finding(s)\n", len(findings))
	}
	if len(findings) > 0 || overLimit {
		os.Exit(1)
	}
	return nil
}

// printCensus renders the suppression census, flagging stale allows
// (ones that no longer suppress anything).
func printCensus(root string, allows []lint.Allow) {
	fmt.Printf("suppression census: %d //cad3:allow annotation(s)\n", len(allows))
	for _, al := range allows {
		file := al.Pos.Filename
		if rel, err := filepath.Rel(root, file); err == nil {
			file = rel
		}
		state := "used"
		if !al.Used {
			state = "STALE"
		}
		fmt.Printf("  %s:%d: [%s] (%s) %s\n", file, al.Pos.Line, al.Analyzer, state, al.Reason)
	}
}
