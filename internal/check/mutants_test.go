package check

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"mdacache/internal/clitest"
	"mdacache/internal/workloads"
)

// TestMutants scores the corpora against the mutant catalogue
// (clitest.Mutants). Each entry's one-line mutation is applied with
// `go test -overlay` to a run of this package limited to the entry's
// catchers, with clitest.MutantEnv naming the entry. The mutant is caught
// only when that run exits 0 and every catcher reports PASS: a build
// failure, a skip or "no tests to run" is an error, never a catch.
func TestMutants(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the mutant catalogue needs the go command: %v", err)
	}
	for _, m := range clitest.Mutants {
		t.Run(m.Name, func(t *testing.T) {
			cmd := exec.Command(goBin, "test", "-count=1", "-v",
				"-overlay", m.Overlay(t),
				"-run", "^("+strings.Join(m.Catchers, "|")+")$",
				"mdacache/internal/check")
			cmd.Env = append(os.Environ(), clitest.MutantEnv+"="+m.Name)
			out, err := cmd.CombinedOutput()
			t.Logf("%s", out)
			if err != nil {
				t.Fatalf("mutant %s survived or did not build: %v", m.Name, err)
			}
			for _, c := range m.Catchers {
				if !strings.Contains(string(out), "--- PASS: "+c+" ") {
					t.Errorf("mutant %s: catcher %s did not report PASS", m.Name, c)
				}
			}
		})
	}
}

// TestMutantCaught is the catcher the catalogue's generic entries share,
// shaped like TestBrokenCoherenceCaught: some seed of the single-core,
// 2-core or request corpus fails, its witness is shrunk, and the report
// carries a repro line.
func TestMutantCaught(t *testing.T) {
	if !clitest.UnderMutant(t) {
		return
	}
	opt := Options{Designs: AllDesigns, Faults: FaultOff}
	type corpus struct {
		name  string
		seeds uint64
		check func(seed uint64) (*Failure, error)
	}
	corpora := []corpus{
		{"single-core", 200, func(s uint64) (*Failure, error) { return CheckSpec(SpecForSeed(s), opt), nil }},
		{"2-core", 200, func(s uint64) (*Failure, error) { return CheckMCSpec(MCSpecForSeed(s, 2), opt), nil }},
	}
	for _, w := range workloads.RequestNames {
		corpora = append(corpora, corpus{w + " request", 100, func(s uint64) (*Failure, error) {
			return CheckRequest(RequestSpecForSeed(w, s, 2), opt)
		}})
	}
	for _, c := range corpora {
		for seed := uint64(0); seed < c.seeds; seed++ {
			f, err := c.check(seed)
			if err != nil {
				t.Fatal(err)
			}
			if f == nil {
				continue
			}
			if !f.Shrunk || len(f.Ops) == 0 {
				t.Fatalf("%s seed %d: witness not shrunk: shrunk=%v len=%d", c.name, seed, f.Shrunk, len(f.Ops))
			}
			if !strings.Contains(f.String(), "reproduce with: "+f.Repro()+"\n") {
				t.Fatalf("%s seed %d: failure report lacks repro line:\n%s", c.name, seed, f)
			}
			t.Logf("mutant %s caught by %s seed %d, shrunk to %d ops across %d cores",
				os.Getenv(clitest.MutantEnv), c.name, seed, len(f.Ops), f.CoresTouched())
			return
		}
	}
	t.Fatalf("mutant %s was not detected by any corpus", os.Getenv(clitest.MutantEnv))
}
