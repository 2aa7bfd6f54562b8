package clitest

import (
	"encoding/json"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// Mutant is one catalogued source mutation: a one-line bug in a mechanism
// the internal/check conformance corpora must catch. It is injected from
// outside the program by building with `go test -overlay` (or `go build
// -overlay`), so the simulator carries no mutation switch of its own.
type Mutant struct {
	Name string
	File string // source file, relative to the module root
	// Old must occur exactly once in File, so a refactor that moves or
	// rewrites the site fails loudly instead of reading as a survivor.
	Old string
	New string
	// Catchers are the internal/check tests that pass only under this
	// mutant: each finds a failing seed and checks its report.
	Catchers []string
}

// MutantEnv names the environment variable that tells the catchers which
// mutant the test binary was built with.
const MutantEnv = "MDACACHE_MUTANT"

// mutantCaught is the generic catcher: some seed of the single-core, 2-core
// or request corpus fails, with a shrunk witness and a repro line.
const mutantCaught = "TestMutantCaught"

// Mutants is the catalogue. Only value-changing mutants belong here: the
// corpora compare load values and memory images, not traffic or timing.
var Mutants = []Mutant{
	{
		// The Fig. 9 write-to-duplicate eviction never happens.
		Name: "dup-evict",
		File: "internal/core/cache1p.go",
		Old:  "func (c *Cache1P) evictDuplicate(at uint64, m *line) {\n",
		New:  "func (c *Cache1P) evictDuplicate(at uint64, m *line) {\n\treturn\n",
		Catchers: []string{
			"TestBrokenCoherenceCaught",
			"TestBrokenCoherenceShrinksSmall",
			"TestMCBrokenDupCoherenceCaught",
		},
	},
	{
		// A store no longer invalidates sibling L1 copies.
		Name: "store-snoop",
		File: "internal/core/coherence.go",
		Old:  "func (h *snoopHub) storeSnoop(at uint64, core int, line isa.LineID, mask uint8) {\n",
		New:  "func (h *snoopHub) storeSnoop(at uint64, core int, line isa.LineID, mask uint8) {\n\treturn\n",
		Catchers: []string{
			"TestMCBrokenSnoopShrinksToCrossCoreWitness",
			"TestRequestBrokenSnoopCaught",
		},
	},
	{
		// A sibling 1P L1's dirty words are not overlaid on a peek.
		Name:     "peek-dirty-1p",
		File:     "internal/core/cache1p.go",
		Old:      "func (c *Cache1P) peekDirty(id isa.LineID, data [isa.WordsPerLine]uint64) [isa.WordsPerLine]uint64 {\n",
		New:      "func (c *Cache1P) peekDirty(id isa.LineID, data [isa.WordsPerLine]uint64) [isa.WordsPerLine]uint64 {\n\treturn data\n",
		Catchers: []string{mutantCaught},
	},
	{
		// Only the same-orientation line's dirty words are overlaid; the
		// intersecting other-orientation lines' are dropped.
		Name:     "peek-dirty-1p-cross",
		File:     "internal/core/cache1p.go",
		Old:      "\t\tif m.dirty&(1<<moff) != 0 {\n\t\t\tioff, _ := id.WordOffset(addr)\n",
		New:      "\t\tif false && m.dirty&(1<<moff) != 0 {\n\t\t\tioff, _ := id.WordOffset(addr)\n",
		Catchers: []string{mutantCaught},
	},
	{
		// A 2P tile's dirty words are not overlaid on a peek.
		Name:     "peek-dirty-2p",
		File:     "internal/core/cache2p2l.go",
		Old:      "func (c *Cache2P) peekDirty(id isa.LineID, data [isa.WordsPerLine]uint64) [isa.WordsPerLine]uint64 {\n",
		New:      "func (c *Cache2P) peekDirty(id isa.LineID, data [isa.WordsPerLine]uint64) [isa.WordsPerLine]uint64 {\n\treturn data\n",
		Catchers: []string{mutantCaught},
	},
	{
		// The §IV-B overlap ordering never holds an op back.
		Name:     "overlap-order",
		File:     "internal/core/coherence.go",
		Old:      "func (g *coreGroup) conflicts(op isa.Op) *inflightOp {\n",
		New:      "func (g *coreGroup) conflicts(op isa.Op) *inflightOp {\n\treturn nil\n",
		Catchers: []string{mutantCaught},
	},
	{
		// Any valid column makes every word of the tile valid.
		Name:     "tile-valid",
		File:     "internal/core/cache2p2l.go",
		Old:      "return t.rowValid&(1<<r) != 0 || t.colValid&(1<<c) != 0",
		New:      "return t.rowValid&(1<<r) != 0 || t.colValid != 0",
		Catchers: []string{mutantCaught},
	},
}

// findMutant returns the catalogue entry called name.
func findMutant(t testing.TB, name string) Mutant {
	t.Helper()
	for _, m := range Mutants {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("clitest: no mutant %q in the catalogue", name)
	return Mutant{}
}

// UnderMutant reports whether the calling catcher runs under a catalogued
// mutant that lists it; the catcher returns at once when it does not.
// Without MutantEnv (a plain `go test`) the catcher costs nothing: this only
// checks that each mutant listing it still applies to the live source, and
// reports false, so the catcher passes. With MutantEnv naming a mutant that
// does not list the catcher, the catcher skips, which TestMutants counts as
// an error.
func UnderMutant(t *testing.T) bool {
	t.Helper()
	name := os.Getenv(MutantEnv)
	if name == "" {
		listed := false
		for _, m := range Mutants {
			if slices.Contains(m.Catchers, t.Name()) {
				listed = true
				m.source(t)
			}
		}
		if !listed {
			t.Fatalf("clitest: no catalogued mutant lists %s as a catcher", t.Name())
		}
		return false
	}
	if !slices.Contains(findMutant(t, name).Catchers, t.Name()) {
		t.Skipf("mutant %q does not list %s as a catcher", name, t.Name())
	}
	return true
}

// source returns the live file's path and contents, failing the test
// unless Old occurs exactly once in it.
func (m Mutant) source(t testing.TB) (live, src string) {
	t.Helper()
	live = filepath.Join(moduleRoot(t), filepath.FromSlash(m.File))
	b, err := os.ReadFile(live)
	if err != nil {
		t.Fatalf("clitest: mutant %s: %v", m.Name, err)
	}
	if n := strings.Count(string(b), m.Old); n != 1 {
		t.Fatalf("clitest: mutant %s: its old text occurs %d times in %s, want exactly 1:\n%s",
			m.Name, n, m.File, m.Old)
	}
	return live, string(b)
}

// Overlay writes the mutated source and a `-overlay` JSON file mapping the
// live file onto it into t.TempDir(), and returns the JSON file's path. It
// fails the test unless Old occurs exactly once in the live file.
func (m Mutant) Overlay(t testing.TB) string {
	t.Helper()
	live, src := m.source(t)
	dir := t.TempDir()
	mutated := filepath.Join(dir, filepath.Base(live))
	if err := os.WriteFile(mutated, []byte(strings.Replace(src, m.Old, m.New, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(map[string]map[string]string{"Replace": {live: mutated}})
	if err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(overlay, js, 0o644); err != nil {
		t.Fatal(err)
	}
	return overlay
}

// BuildMutant builds the main package pkg with the named mutant applied and
// returns the binary's name for Run ("mdacheck+dup-evict"). Requires Main.
func BuildMutant(t testing.TB, pkg, mutant string) string {
	t.Helper()
	if binDir == "" {
		t.Fatal("clitest: BuildMutant needs clitest.Main")
	}
	name := path.Base(pkg) + "+" + mutant
	if _, ok := bins[name]; ok {
		return name
	}
	out := filepath.Join(binDir, name)
	cmd := exec.Command("go", "build", "-overlay", findMutant(t, mutant).Overlay(t), "-o", out, pkg)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("clitest: building %s with mutant %s: %v\n%s", pkg, mutant, err, msg)
	}
	bins[name] = out
	return name
}

// moduleRoot returns the directory holding go.mod, searching upward from
// the test's working directory (its package directory).
func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("clitest: no go.mod above the working directory")
		}
		dir = parent
	}
}
