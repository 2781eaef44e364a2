package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSpecGolden drives the parser over the checked-in golden corpus:
// every testdata/specs/ok-*.json must parse and validate; every
// bad-*.json must fail with an error matching the regexp in its paired
// bad-*.err file. Adding a grammar rule means adding a pair here — the
// test fails loudly on an unpaired file.
func TestSpecGolden(t *testing.T) {
	dir := filepath.Join("testdata", "specs")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	okSeen, badSeen := 0, 0
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasPrefix(name, "ok-") && strings.HasSuffix(name, ".json"):
			okSeen++
			t.Run(name, func(t *testing.T) {
				s, err := LoadSpec(filepath.Join(dir, name))
				if err != nil {
					t.Fatalf("want clean parse, got %v", err)
				}
				if _, err := Compile(s); err != nil {
					t.Fatalf("want clean compile, got %v", err)
				}
			})
		case strings.HasPrefix(name, "bad-") && strings.HasSuffix(name, ".json"):
			badSeen++
			t.Run(name, func(t *testing.T) {
				errFile := strings.TrimSuffix(name, ".json") + ".err"
				wantRE, err := os.ReadFile(filepath.Join(dir, errFile))
				if err != nil {
					t.Fatalf("bad spec %s has no paired %s: %v", name, errFile, err)
				}
				re, err := regexp.Compile(strings.TrimSpace(string(wantRE)))
				if err != nil {
					t.Fatalf("%s holds an invalid regexp: %v", errFile, err)
				}
				_, perr := LoadSpec(filepath.Join(dir, name))
				if perr == nil {
					t.Fatalf("want parse error matching %q, got success", re)
				}
				if !re.MatchString(perr.Error()) {
					t.Fatalf("error %q does not match %q", perr, re)
				}
			})
		}
	}
	if okSeen < 2 || badSeen < 5 {
		t.Fatalf("golden corpus too thin: %d ok, %d bad specs", okSeen, badSeen)
	}
}

// TestKitchenSinkUsesEveryAction keeps ok-kitchen-sink.json what its
// notes claim: every declared action type appears in it.
func TestKitchenSinkUsesEveryAction(t *testing.T) {
	s, err := LoadSpec(filepath.Join("testdata", "specs", "ok-kitchen-sink.json"))
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, ph := range s.Phases {
		for _, a := range ph.Actions {
			used[a.Type] = true
		}
	}
	for typ := range declaredActions {
		if !used[typ] {
			t.Errorf("kitchen sink never uses %q", typ)
		}
	}
}

// TestSpecMarshalRoundTrip checks Marshal → ParseSpec is the identity on
// the golden ok specs, and that Marshal is byte-stable — the property the
// explorer's content-addressed archive names rely on.
func TestSpecMarshalRoundTrip(t *testing.T) {
	s, err := LoadSpec(filepath.Join("testdata", "specs", "ok-kitchen-sink.json"))
	if err != nil {
		t.Fatal(err)
	}
	data1, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := ParseSpec(data1)
	if err != nil {
		t.Fatalf("marshalled spec does not re-parse: %v", err)
	}
	data2, err := s2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatal("Marshal is not byte-stable across a parse round trip")
	}
}

// TestSpecClone proves Clone is deep: mutating a clone's phases, actions
// and assertions leaves the original untouched.
func TestSpecClone(t *testing.T) {
	s, err := LoadSpec(filepath.Join("testdata", "specs", "ok-kitchen-sink.json"))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	c := s.Clone()
	c.Name = "mutated"
	c.Phases[0].Rounds = 999
	c.Phases[1].Actions[0].ToProb = 0.99
	c.Phases[2].Assertions[0].Value = -1
	after, err := s.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, after) {
		t.Fatal("mutating a clone leaked into the original spec")
	}
}
