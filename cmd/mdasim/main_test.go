package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdacache/internal/clitest"
)

func TestMain(m *testing.M) {
	clitest.Main(m, "mdacache/cmd/mdasim")
}

// TestSmoke runs one tiny simulation end to end and sanity-checks the report.
func TestSmoke(t *testing.T) {
	res := clitest.Run(t, "mdasim", "-bench", "sgemm", "-design", "1P2L", "-scale", "32")
	if res.Code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", res.Code, res.Stderr)
	}
	for _, want := range []string{"sgemm on 1P2L", "Cache levels", "MDA main memory"} {
		if !strings.Contains(res.Stdout, want) {
			t.Errorf("report lacks %q:\n%s", want, res.Stdout)
		}
	}
}

// TestSmokePrintConfig checks the no-simulation path.
func TestSmokePrintConfig(t *testing.T) {
	res := clitest.Run(t, "mdasim", "-printconfig", "-design", "2P2L")
	if res.Code != 0 || !strings.Contains(res.Stdout, "Configuration") {
		t.Fatalf("exit %d, stdout:\n%s", res.Code, res.Stdout)
	}
}

// TestSmokeCSVAndMetrics checks the machine-readable outputs.
func TestSmokeCSVAndMetrics(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.json")
	res := clitest.Run(t, "mdasim", "-bench", "sobel", "-scale", "32", "-csv", "-metrics-out", out)
	if res.Code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stdout, "cycles,") {
		t.Errorf("CSV output lacks cycles row:\n%s", res.Stdout)
	}
}

// TestSmokeTraceOut checks event-trace emission.
func TestSmokeTraceOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.jsonl")
	res := clitest.Run(t, "mdasim", "-bench", "sgemm", "-scale", "32", "-trace-out", out, "-trace-format", "jsonl")
	if res.Code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", res.Code, res.Stderr)
	}
	if !strings.Contains(res.Stderr, "wrote") {
		t.Errorf("no trace summary on stderr:\n%s", res.Stderr)
	}

	// A multi-core, fault-injected kv run emits every trace category.
	out = filepath.Join(t.TempDir(), "kv.jsonl")
	res = clitest.Run(t, "mdasim", "-workload", "kv", "-ops", "5000", "-design", "2P2L", "-scale", "16",
		"-cores", "2", "-read-ratio", "0.5", "-write-fail-prob", "0.3", "-fault-seed", "1", "-trace-out", out)
	if res.Code != 0 {
		t.Fatalf("kv: exit %d\nstderr:\n%s", res.Code, res.Stderr)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Cat string `json:"cat"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("kv: bad trace line %q: %v", line, err)
		}
		counts[ev.Cat]++
	}
	for _, cat := range []string{"cache", "mshr", "mem", "fault", "cpu"} {
		if counts[cat] == 0 {
			t.Errorf("kv: no %s events in the trace (counts %v)", cat, counts)
		}
	}
}

// TestSmokeWorkload runs a small request-driven simulation on each family
// and checks the run-twice CSV output is bit-identical for a fixed seed.
func TestSmokeWorkload(t *testing.T) {
	for _, w := range []string{"kv", "htap"} {
		args := []string{"-workload", w, "-ops", "30000", "-cores", "2", "-scale", "16",
			"-zipf", "0.9", "-read-ratio", "0.8", "-clients", "4", "-workload-seed", "7", "-csv"}
		a := clitest.Run(t, "mdasim", args...)
		if a.Code != 0 {
			t.Fatalf("%s: exit %d\nstderr:\n%s", w, a.Code, a.Stderr)
		}
		if !strings.Contains(a.Stdout, "ops,30000") {
			t.Errorf("%s: CSV lacks exact op count:\n%s", w, a.Stdout)
		}
		b := clitest.Run(t, "mdasim", args...)
		if a.Stdout != b.Stdout {
			t.Errorf("%s: same seed, different runs:\n%s\nvs\n%s", w, a.Stdout, b.Stdout)
		}
	}
}

// TestUsageErrors pins exit code 2 + a diagnostic for every invalid flag
// combination the CLI rejects.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of stderr
	}{
		{"unknown design", []string{"-design", "3P3L"}, "unknown design"},
		{"unknown bench", []string{"-bench", "nope"}, "unknown benchmark"},
		{"zero scale", []string{"-bench", "sgemm", "-scale", "0"}, "-scale must be"},
		{"negative n", []string{"-bench", "sgemm", "-n", "-4"}, "-n must be"},
		{"bad fail prob", []string{"-bench", "sgemm", "-write-fail-prob", "1.5"}, "-write-fail-prob"},
		{"orphan trace-format", []string{"-bench", "sgemm", "-trace-format", "chrome"}, "requires -trace-out"},
		{"orphan trace-cats", []string{"-bench", "sgemm", "-trace-cats", "mem"}, "requires -trace-out"},
		{"orphan trace-sample", []string{"-bench", "sgemm", "-trace-sample", "2"}, "requires -trace-out"},
		{"bad trace-sample", []string{"-bench", "sgemm", "-trace-out", "x", "-trace-sample", "0"}, "-trace-sample"},
		{"unknown workload", []string{"-workload", "nope"}, "unknown workload"},
		{"workload plus bench", []string{"-workload", "kv", "-bench", "sgemm"}, "mutually exclusive"},
		{"workload plus trace", []string{"-workload", "kv", "-trace", "x"}, "mutually exclusive"},
		{"orphan ops", []string{"-bench", "sgemm", "-ops", "100"}, "requires -workload"},
		{"orphan zipf", []string{"-bench", "sgemm", "-zipf", "0.5"}, "requires -workload"},
		{"orphan clients", []string{"-bench", "sgemm", "-clients", "2"}, "requires -workload"},
		{"bad zipf", []string{"-workload", "kv", "-zipf", "1.5"}, "-zipf must be"},
		{"bad read-ratio", []string{"-workload", "kv", "-read-ratio", "2"}, "-read-ratio must be"},
		{"zero ops", []string{"-workload", "kv", "-ops", "0"}, "-ops must be"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res := clitest.Run(t, "mdasim", c.args...)
			if res.Code != 2 {
				t.Fatalf("exit %d, want 2\nstderr:\n%s", res.Code, res.Stderr)
			}
			if !strings.Contains(res.Stderr, c.want) {
				t.Errorf("stderr lacks %q:\n%s", c.want, res.Stderr)
			}
		})
	}
}
