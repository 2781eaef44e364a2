package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"testing"
)

// The golden tests load a miniature module from testdata/src/<case> and
// compare each analyzer's findings against `// want "regex"` comments:
// every finding must match a want on its exact line, and every want must
// be hit by at least one finding. A want comment may carry several
// quoted patterns when a line produces several findings.

var wantRe = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)
var wantPatRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type wantEntry struct {
	re      *regexp.Regexp
	matched bool
	raw     string
}

// loadGolden loads the testdata module under dir and fails the test on
// type errors, so a broken fixture can never pass by producing nothing.
func loadGolden(t *testing.T, dir string) *Program {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := NewLoader(root, "golden").LoadRepo()
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	for _, pkg := range prog.Pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
	}
	if t.Failed() {
		t.Fatalf("fixture %s does not type-check", dir)
	}
	return prog
}

// runGolden checks one analyzer (plus the allow machinery in RunCensus)
// against one fixture.
func runGolden(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	prog := loadGolden(t, dir)
	findings, _ := RunCensus(prog, analyzers)

	wants := map[string][]*wantEntry{} // "file:line" -> patterns
	for _, pkg := range prog.Pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					for _, pm := range wantPatRe.FindAllStringSubmatch(m[1], -1) {
						re, err := regexp.Compile(pm[1])
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", key, pm[1], err)
						}
						wants[key] = append(wants[key], &wantEntry{re: re, raw: pm[1]})
					}
				}
			}
		}
	}

	for _, f := range findings {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		hit := false
		for _, w := range wants[key] {
			if w.re.MatchString(f.Message) {
				w.matched = true
				hit = true
			}
		}
		if !hit {
			t.Errorf("unexpected finding: %s", f.String())
		}
	}
	for key, entries := range wants {
		for _, w := range entries {
			if !w.matched {
				t.Errorf("%s: expected a finding matching %q, got none", key, w.raw)
			}
		}
	}
}

func TestGoldenVirtualClock(t *testing.T)     { runGolden(t, "virtualclock", VirtualClock) }
func TestGoldenPoolSafety(t *testing.T)       { runGolden(t, "poolsafety", PoolSafety) }
func TestGoldenWireLayout(t *testing.T)       { runGolden(t, "wirelayout", WireLayout) }
func TestGoldenNoAlloc(t *testing.T)          { runGolden(t, "noalloc", NoAlloc) }
func TestGoldenGoroutineHygiene(t *testing.T) { runGolden(t, "goroutine", GoroutineHygiene) }

func TestGoldenDetOrder(t *testing.T)          { runGolden(t, "detorder", DetOrder) }
func TestGoldenLockDiscipline(t *testing.T)    { runGolden(t, "lockdiscipline", LockDiscipline) }
func TestGoldenAtomicMix(t *testing.T)         { runGolden(t, "atomicmix", AtomicMix) }
func TestGoldenWireErrExhaustive(t *testing.T) { runGolden(t, "wireerrexhaustive", WireErrExhaustive) }
func TestGoldenReach(t *testing.T)             { runGolden(t, "reach", Reach) }

// TestGoldenSuiteTogether runs the full suite over every fixture at once
// to prove analyzers do not interfere (each fixture's wants are scoped to
// the analyzers that fire there, so the union must still line up).
func TestGoldenSuiteTogether(t *testing.T) {
	for _, dir := range []string{
		"virtualclock", "poolsafety", "noalloc", "goroutine",
		"detorder", "lockdiscipline", "atomicmix", "reach",
	} {
		// wirelayout is excluded: its fixture deliberately seeds layout
		// drift that the dedicated test covers, and the noalloc/poolsafety
		// fixtures define no codec for it to cross-check. wireerrexhaustive
		// is excluded for the same reason: its decoder deliberately drifts
		// from the wire table, which its dedicated test pins.
		t.Run(dir, func(t *testing.T) { runGolden(t, dir, Analyzers()...) })
	}
}
