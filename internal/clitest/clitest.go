// Package clitest builds and runs the repo's command binaries (cmd/* and
// examples/*) for smoke and exit-code tests. The cmd packages themselves are
// `package main` with no exported surface, so testing their flag validation
// and output means executing real binaries; this package owns the build-once
// plumbing so each cmd's test file stays a table of invocations. It also
// holds the mutant catalogue (Mutants): one-line source mutations that
// tests apply with the go command's -overlay flag, to check that the
// conformance corpora catch them.
package clitest

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"testing"
)

// Main is a TestMain helper: it builds each named main package into a
// process-wide temp dir, runs the tests, and cleans up. Usage:
//
//	func TestMain(m *testing.M) { clitest.Main(m, "mdacache/cmd/mdasim") }
//
// Binaries are then available to tests via Bin.
func Main(m *testing.M, pkgs ...string) {
	code := func() int {
		dir, err := os.MkdirTemp("", "mdacache-clitest-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, "clitest:", err)
			return 1
		}
		defer os.RemoveAll(dir)
		binDir = dir
		for _, pkg := range pkgs {
			if err := build(pkg); err != nil {
				fmt.Fprintln(os.Stderr, "clitest:", err)
				return 1
			}
		}
		return m.Run()
	}()
	os.Exit(code)
}

var (
	binDir string
	bins   = map[string]string{}
)

func build(pkg string) error {
	out := filepath.Join(binDir, path.Base(pkg))
	cmd := exec.Command("go", "build", "-o", out, pkg)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building %s: %w", pkg, err)
	}
	bins[path.Base(pkg)] = out
	return nil
}

// Bin returns the path of a binary built by Main, by base name ("mdasim").
func Bin(t testing.TB, name string) string {
	t.Helper()
	bin, ok := bins[name]
	if !ok {
		t.Fatalf("clitest: %q was not built; pass its package to clitest.Main", name)
	}
	return bin
}

// Result is one finished invocation.
type Result struct {
	Stdout string
	Stderr string
	Code   int // process exit code; -1 if the process failed to start
}

// Run executes the named built binary with args and returns its output and
// exit code. Non-zero exits are returned, not failed — exit-code tests
// assert on them.
func Run(t testing.TB, name string, args ...string) Result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(Bin(t, name), args...)
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	res := Result{Stdout: stdout.String(), Stderr: stderr.String(), Code: 0}
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("clitest: running %s: %v", name, err)
		}
		res.Code = ee.ExitCode()
	}
	return res
}
