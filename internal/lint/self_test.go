package lint

import (
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// repo is the real module, loaded once per test binary, and vetted at
// most once: every test that reads the whole module shares the one
// type-checked Program and the one timed pass of the suite over it.
var repo struct {
	load, vet sync.Once
	root      string
	prog      *Program
	findings  []Finding
	elapsed   time.Duration // the load, plus the suite once it ran
	err       error
}

// repoProgram returns the module root and its Program.
func repoProgram(t *testing.T) (string, *Program) {
	t.Helper()
	repo.load.Do(func() {
		start := time.Now()
		var module string
		repo.root, module, repo.err = FindModuleRoot(".")
		if repo.err == nil {
			repo.prog, repo.err = NewLoader(repo.root, module).LoadRepo()
		}
		repo.elapsed = time.Since(start)
	})
	if repo.err != nil {
		t.Fatal(repo.err)
	}
	return repo.root, repo.prog
}

// repoVet runs the suite over the module once and returns its findings
// and how long the load plus the suite took.
func repoVet(t *testing.T) (string, *Program, []Finding, time.Duration) {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checking the whole module is not a -short test")
	}
	root, prog := repoProgram(t)
	repo.vet.Do(func() {
		start := time.Now()
		repo.findings, _ = RunCensus(prog, Analyzers())
		repo.elapsed += time.Since(start)
	})
	return root, prog, repo.findings, repo.elapsed
}

// TestRepoIsClean runs the full suite over the real module — the same
// check `make vet` and CI run. Any finding here is a real regression
// against the invariants in DESIGN.md §11.
func TestRepoIsClean(t *testing.T) {
	root, prog, findings, _ := repoVet(t)
	for _, pkg := range prog.Pkgs {
		for _, e := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, e)
		}
	}
	for _, f := range findings {
		rel := f
		if r, rerr := filepath.Rel(root, f.Pos.Filename); rerr == nil {
			rel.Pos.Filename = r
		}
		t.Errorf("%s", rel.String())
	}
}

// TestRepoVetUnderBudget pins the full vet pass (load plus the suite,
// the pass TestRepoIsClean reads) to the wall-clock budget the workflow
// depends on (~10s target; asserted at 3x to absorb slow CI machines).
// If this fails, the loader's parallelism or an analyzer's complexity
// regressed — see BenchmarkRepoVet to profile.
func TestRepoVetUnderBudget(t *testing.T) {
	_, _, _, elapsed := repoVet(t)
	t.Logf("full-repo vet: %v", elapsed)
	if elapsed > 30*time.Second {
		t.Fatalf("full-repo vet took %v, budget is 30s (target ~10s)", elapsed)
	}
}

// TestWireDecoderPresent pins the repo to carrying the remoteError
// decoder: wireerrexhaustive silently audits nothing when the decoder is
// absent (so miniature fixtures without a protocol stay loadable), and
// that escape hatch must never swallow the real module.
func TestWireDecoderPresent(t *testing.T) {
	_, prog := repoProgram(t)
	var pkg *Package
	for _, p := range prog.Pkgs {
		if p.Path == "cad3/internal/stream" {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatal("the module no longer has internal/stream")
	}
	set, pos := wireDecodeSet(pkg)
	if !pos.IsValid() {
		t.Fatalf("internal/stream no longer declares %s; wireerrexhaustive is auditing nothing", wireDecoderFunc)
	}
	if len(set) == 0 {
		t.Fatalf("%s reconstructs no sentinels; the decoder moved or was gutted", wireDecoderFunc)
	}
}
