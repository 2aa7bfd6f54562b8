package main

import (
	"strings"
	"testing"

	"mdacache/internal/clitest"
)

func TestMain(m *testing.M) {
	clitest.Main(m, "mdacache/cmd/mdacheck")
}

// TestSmokeCorpus runs a small corpus slice and expects conformance.
func TestSmokeCorpus(t *testing.T) {
	res := clitest.Run(t, "mdacheck", "-n", "10")
	if res.Code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", res.Code, res.Stdout, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "10 seed(s) conform") {
		t.Errorf("unexpected summary:\n%s", res.Stdout)
	}
}

// TestSmokeSingleSeed checks the -seed repro entry point (seed 0 included —
// an explicit -seed 0 must not fall back to corpus mode).
func TestSmokeSingleSeed(t *testing.T) {
	res := clitest.Run(t, "mdacheck", "-seed", "0", "-faults", "off", "-v")
	if res.Code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s", res.Code, res.Stdout)
	}
	if !strings.Contains(res.Stdout, "1 seed(s) conform") {
		t.Errorf("-seed 0 did not run exactly one seed:\n%s", res.Stdout)
	}
	if !strings.Contains(res.Stdout, "seed=0x0") {
		t.Errorf("-v did not print the spec:\n%s", res.Stdout)
	}
}

// TestVerboseSpecShowsCheckedFaults: -v prints each spec with the fault bit
// the check runs under, so a forced -faults setting overrides the seed's own
// (seed 7 derives faults=true in every corpus) and the printed spec agrees
// with the failure header.
func TestVerboseSpecShowsCheckedFaults(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-faults", "off"}, "faults=false"},
		{[]string{"-faults", "off", "-cores", "2"}, "faults=false"},
		{[]string{"-faults", "off", "-workload", "kv"}, "faults=false"},
		{nil, "faults=true"},
	} {
		args := append([]string{"-seed", "7", "-v"}, c.args...)
		res := clitest.Run(t, "mdacheck", args...)
		if res.Code != 0 {
			t.Fatalf("mdacheck %v: exit %d\nstdout:\n%s", args, res.Code, res.Stdout)
		}
		specLine, _, _ := strings.Cut(res.Stdout, "\n")
		if !strings.Contains(specLine, c.want) {
			t.Errorf("mdacheck %v: spec line %q lacks %q", args, specLine, c.want)
		}
	}
}

// TestFailureOutput runs an mdacheck built with the dup-evict mutant (see
// clitest.Mutants) and pins the failure contract: exit 1, a shrunk trace,
// and a copy-pasteable one-line repro command.
func TestFailureOutput(t *testing.T) {
	bin := clitest.BuildMutant(t, "mdacache/cmd/mdacheck", "dup-evict")
	res := clitest.Run(t, bin, "-n", "100", "-faults", "off")
	if res.Code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s", res.Code, res.Stdout)
	}
	for _, want := range []string{
		"conformance failure",
		"reproduce with: mdacheck -seed 0x",
		"shrunk trace",
		"failing seed(s)",
	} {
		if !strings.Contains(res.Stdout, want) {
			t.Errorf("failure output lacks %q:\n%s", want, res.Stdout)
		}
	}
}

// TestFailureReproFlags pins what a failure report says about the flags it
// was checked under: the header shows the effective fault setting, the
// repro line carries every non-default -designs/-faults flag, and a run
// with default flags prints the spec's own repro and nothing more. Seed 7
// derives faults=true and fails under the dup-evict mutant.
func TestFailureReproFlags(t *testing.T) {
	bin := clitest.BuildMutant(t, "mdacache/cmd/mdacheck", "dup-evict")
	for _, c := range []struct {
		args      []string
		header    string
		reproduce string
	}{
		{[]string{"-seed", "7"}, "faults=true", "reproduce with: mdacheck -seed 0x7\n"},
		{[]string{"-seed", "7", "-faults", "off", "-designs", "all"}, "faults=false",
			"reproduce with: mdacheck -seed 0x7 -designs all -faults off\n"},
	} {
		res := clitest.Run(t, bin, c.args...)
		if res.Code != 1 {
			t.Fatalf("%v: exit %d, want 1\nstdout:\n%s", c.args, res.Code, res.Stdout)
		}
		header, _, _ := strings.Cut(res.Stdout, "\n")
		if !strings.HasSuffix(header, c.header) {
			t.Errorf("%v: header %q does not end in %q", c.args, header, c.header)
		}
		if !strings.Contains(res.Stdout, c.reproduce) {
			t.Errorf("%v: output lacks %q:\n%s", c.args, c.reproduce, res.Stdout)
		}
	}
}

// TestSmokeWorkload sweeps a small request-workload corpus slice over
// single- and multi-core harnesses.
func TestSmokeWorkload(t *testing.T) {
	for _, w := range []string{"kv", "htap"} {
		res := clitest.Run(t, "mdacheck", "-workload", w, "-n", "4", "-cores", "1,2")
		if res.Code != 0 {
			t.Fatalf("%s: exit %d\nstdout:\n%s\nstderr:\n%s", w, res.Code, res.Stdout, res.Stderr)
		}
		if !strings.Contains(res.Stdout, "8 "+w+" workload seed(s) conform") {
			t.Errorf("%s: unexpected summary:\n%s", w, res.Stdout)
		}
	}
}

// TestWorkloadFailureOutput pins the request-workload failure contract:
// with snoop coherence broken (an mdacheck built with the store-snoop
// mutant), some seed fails with exit 1 and a repro line naming the workload.
func TestWorkloadFailureOutput(t *testing.T) {
	bin := clitest.BuildMutant(t, "mdacache/cmd/mdacheck", "store-snoop")
	res := clitest.Run(t, bin, "-workload", "htap", "-n", "50", "-cores", "2",
		"-faults", "off")
	if res.Code != 1 {
		t.Fatalf("exit %d, want 1\nstdout:\n%s", res.Code, res.Stdout)
	}
	for _, want := range []string{
		"request conformance failure",
		"reproduce with: mdacheck -workload htap -cores 2 -seed 0x",
		"shrunk schedule",
	} {
		if !strings.Contains(res.Stdout, want) {
			t.Errorf("failure output lacks %q:\n%s", want, res.Stdout)
		}
	}
}

// TestUsageErrors pins exit code 2 for invalid invocations.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"bad designs", []string{"-designs", "bogus"}, "-designs"},
		{"bad faults", []string{"-faults", "maybe"}, "-faults"},
		{"zero n", []string{"-n", "0"}, "-n must be"},
		{"zero max-failures", []string{"-max-failures", "0"}, "-max-failures"},
		{"positional args", []string{"stray"}, "unexpected arguments"},
		{"unknown workload", []string{"-workload", "nope"}, "unknown workload"},
		// The coherence mutations live in the mutant catalogue, not in flags.
		{"unknown flag break-coherence", []string{"-break-coherence"}, "flag provided but not defined: -break-coherence"},
		{"unknown flag break-snoop", []string{"-break-snoop"}, "flag provided but not defined: -break-snoop"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := clitest.Run(t, "mdacheck", c.args...)
			if res.Code != 2 {
				t.Fatalf("exit %d, want 2\nstderr:\n%s", res.Code, res.Stderr)
			}
			if !strings.Contains(res.Stderr, c.want) {
				t.Errorf("stderr lacks %q:\n%s", c.want, res.Stderr)
			}
		})
	}
}
