package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mdacache/internal/clitest"
	"mdacache/internal/experiments"
	"mdacache/internal/serve"
)

func TestMain(m *testing.M) { clitest.Main(m, "mdacache/cmd/mdaserve") }

func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		args []string
		want string // in stderr
	}{
		{nil, "-state-dir is required"},
		{[]string{"-addr", "127.0.0.1:0"}, "-state-dir is required"},
		{[]string{"-state-dir", dir, "-max-queue", "0"}, "-max-queue must be >= 1"},
		{[]string{"-state-dir", dir, "-max-active", "-1"}, "-max-active must be >= 0"},
		{[]string{"-state-dir", dir, "-timeout", "-1s"}, "must be non-negative"},
		{[]string{"positional"}, "unexpected arguments"},
		{[]string{"-no-such-flag"}, "not defined"},
	}
	for _, c := range cases {
		res := clitest.Run(t, "mdaserve", c.args...)
		if res.Code != 2 || !strings.Contains(res.Stderr, c.want) {
			t.Errorf("mdaserve %v: exit %d, want 2 with %q\nstderr: %s", c.args, res.Code, c.want, res.Stderr)
		}
	}
}

// stateDir returns a fresh job-state directory for one test. When
// MDASERVE_ARTIFACT_DIR is set (the CI serve-smoke job), the directory is
// created under it and survives the run, so a failure can upload the per-job
// events.jsonl logs as post-mortem artifacts; otherwise it is an ordinary
// auto-cleaned test temp dir.
func stateDir(t *testing.T) string {
	t.Helper()
	root := os.Getenv("MDASERVE_ARTIFACT_DIR")
	if root == "" {
		return t.TempDir()
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		t.Fatalf("artifact dir: %v", err)
	}
	dir, err := os.MkdirTemp(root, strings.ReplaceAll(t.Name(), "/", "_")+"-*")
	if err != nil {
		t.Fatalf("artifact dir: %v", err)
	}
	return dir
}

// daemon starts mdaserve against stateDir on an ephemeral port and waits for
// the address it registers in the membership directory as node "local".
func daemon(t *testing.T, stateDir string, extra ...string) (*clitest.Proc, string) {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0", "-state-dir", stateDir}, extra...)
	p := clitest.Start(t, "mdaserve", args...)
	nodePath := filepath.Join(stateDir, "nodes", "local.json")
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var rec struct {
			Addr string `json:"addr"`
		}
		if data, err := os.ReadFile(nodePath); err == nil && json.Unmarshal(data, &rec) == nil && rec.Addr != "" {
			// The record may be a stale one from a previous incarnation
			// (same state dir); accept it only once the daemon answers.
			if resp, err := http.Get(rec.Addr + "/healthz"); err == nil {
				resp.Body.Close()
				return p, rec.Addr
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("daemon never registered a live addr\nstderr:\n%s", p.Stderr())
	return nil, ""
}

func postJSON(t *testing.T, url string, body interface{}, out interface{}) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode (%d): %v\n%s", resp.StatusCode, err, raw)
		}
	}
	return resp.StatusCode
}

func getStatus(t *testing.T, base, id string, query string) (serve.JobStatus, int) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + query)
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("decode: %v\n%s", err, raw)
		}
	}
	return st, resp.StatusCode
}

func victimSpecs() []serve.SpecRequest {
	var specs []serve.SpecRequest
	for _, n := range []int{16, 20, 24, 28, 32, 36} {
		specs = append(specs, serve.SpecRequest{
			Bench: "sgemm", Design: "1P1L", N: n, Scale: 16, LLCKB: 1024,
		})
	}
	return specs
}

// TestLoadKillResume is the crash-recovery acceptance harness: N concurrent
// clients load the daemon, `kill -9` lands mid-sweep, and a restarted daemon
// on the same state dir must resume the interrupted job and produce results
// bit-identical (DiffRunResults) to an uninterrupted in-process run.
func TestLoadKillResume(t *testing.T) {
	state := stateDir(t)

	// Golden: the victim job's work, uninterrupted, straight through
	// RunSweep with the daemon's default budget.
	var goldenSpecs []experiments.RunSpec
	for _, sr := range victimSpecs() {
		sp, err := sr.Spec()
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		goldenSpecs = append(goldenSpecs, sp)
	}
	golden, err := experiments.RunSweep(context.Background(), goldenSpecs,
		experiments.SweepOptions{Timeout: 30 * time.Minute, Workers: 2})
	if err != nil {
		t.Fatalf("golden sweep: %v", err)
	}

	p1, base := daemon(t, state, "-workers", "1", "-max-active", "2", "-max-queue", "32")

	// The victim: a six-spec sweep the kill will interrupt.
	var victim serve.SubmitResponse
	if code := postJSON(t, base+"/jobs", serve.SubmitRequest{Specs: victimSpecs()}, &victim); code != http.StatusAccepted {
		t.Fatalf("victim submit: HTTP %d", code)
	}

	// Concurrent load: four clients submitting their own small jobs (two of
	// them identical, exercising dedup under concurrency).
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seed := uint64(c % 3) // clients 0 and 3 collide → dedup or rejection, never corruption
			req := serve.SubmitRequest{Specs: []serve.SpecRequest{{
				Bench: "sobel", Design: "1P2L", N: 16 + 4*int(seed), Scale: 16, LLCKB: 1024,
			}}}
			var resp serve.SubmitResponse
			data, _ := json.Marshal(req)
			hr, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(data))
			if err != nil {
				return // the kill below may sever a client mid-request; that's the point
			}
			defer hr.Body.Close()
			raw, _ := io.ReadAll(hr.Body)
			json.Unmarshal(raw, &resp)
		}(c)
	}

	// Kill -9 once the victim has at least two checkpointed runs — late
	// enough that resume has real state, early enough that work remains.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("victim never reached 2 completed runs\nstderr:\n%s", p1.Stderr())
		}
		st, code := getStatus(t, base, victim.ID, "")
		if code == http.StatusOK && st.Completed >= 2 && !st.State.Terminal() {
			break
		}
		if code == http.StatusOK && st.State.Terminal() {
			t.Fatalf("victim finished before the kill; enlarge its specs (state %s)", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	p1.Kill()
	wg.Wait()
	if code := p1.Wait(10 * time.Second); code != -1 {
		t.Fatalf("SIGKILLed daemon exited %d, want -1", code)
	}

	// Restart on the same state dir: the victim must be re-admitted, resume
	// from its checkpoint, and converge to the golden results.
	_, base2 := daemon(t, state, "-workers", "2", "-max-active", "2")
	var final serve.JobStatus
	deadline = time.Now().Add(120 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("victim did not finish after restart (state %s)", final.State)
		}
		st, code := getStatus(t, base2, victim.ID, "?wait=2000&runs=1")
		if code != http.StatusOK {
			t.Fatalf("victim missing after restart: HTTP %d", code)
		}
		if st.State.Terminal() {
			final = st
			break
		}
	}
	if final.State != serve.StateDone {
		t.Fatalf("resumed victim state = %s (err %+v), want done", final.State, final.Error)
	}
	if final.Resumed == 0 {
		t.Fatalf("victim re-simulated everything; expected checkpoint hits: %+v", final)
	}
	if err := experiments.DiffRunResults(golden, final.Runs); err != nil {
		t.Fatalf("resumed results differ from uninterrupted run: %v", err)
	}

	// The event log survives as the post-mortem artifact.
	evPath := filepath.Join(state, "jobs", victim.ID, "events.jsonl")
	if data, err := os.ReadFile(evPath); err != nil || len(data) == 0 {
		t.Fatalf("event log missing or empty: %v", err)
	}
}

// TestOverloadSheds pins the typed 429 under real load: with a single slot
// and a one-deep queue, a third job is shed while the first two are intact.
func TestOverloadSheds(t *testing.T) {
	state := stateDir(t)
	_, base := daemon(t, state, "-workers", "1", "-max-active", "1", "-max-queue", "1")

	slow := serve.SubmitRequest{Specs: victimSpecs()}
	var a serve.SubmitResponse
	if code := postJSON(t, base+"/jobs", slow, &a); code != http.StatusAccepted {
		t.Fatalf("first: HTTP %d", code)
	}
	// Wait for the dispatcher to move the first job into the running slot so
	// the queue-depth arithmetic below is deterministic.
	deadlineRun := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("healthz: %v", err)
		}
		var h serve.Health
		json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if h.Running >= 1 {
			break
		}
		if time.Now().After(deadlineRun) {
			t.Fatal("first job never started running")
		}
		time.Sleep(5 * time.Millisecond)
	}
	second := serve.SubmitRequest{Specs: []serve.SpecRequest{{Bench: "sobel", Design: "1P1L", N: 16, Scale: 16, LLCKB: 1024}}}
	var b serve.SubmitResponse
	if code := postJSON(t, base+"/jobs", second, &b); code != http.StatusAccepted {
		t.Fatalf("second: HTTP %d", code)
	}
	third := serve.SubmitRequest{Specs: []serve.SpecRequest{{Bench: "ssyrk", Design: "1P1L", N: 16, Scale: 16, LLCKB: 1024}}}
	var aerr serve.APIError
	if code := postJSON(t, base+"/jobs", third, &aerr); code != http.StatusTooManyRequests {
		t.Fatalf("third: HTTP %d, want 429", code)
	} else if aerr.Code != serve.CodeQueueFull {
		t.Fatalf("third: code %q, want %q", aerr.Code, serve.CodeQueueFull)
	}

	// Shedding left the admitted jobs intact.
	for _, id := range []string{a.ID, b.ID} {
		deadline := time.Now().Add(120 * time.Second)
		for {
			st, code := getStatus(t, base, id, "?wait=2000")
			if code != http.StatusOK {
				t.Fatalf("status %s: HTTP %d", id, code)
			}
			if st.State == serve.StateDone {
				break
			}
			if st.State.Terminal() || time.Now().After(deadline) {
				t.Fatalf("job %s: state %s", id, st.State)
			}
		}
	}
}

// TestGracefulDrain: SIGTERM drains and exits 0; a job finished before the
// signal stays queryable on restart.
func TestGracefulDrain(t *testing.T) {
	state := stateDir(t)
	p, base := daemon(t, state, "-workers", "2", "-drain-timeout", "30s")

	var resp serve.SubmitResponse
	req := serve.SubmitRequest{Specs: []serve.SpecRequest{{Bench: "sgemm", Design: "1P1L", N: 16, Scale: 16, LLCKB: 1024}}}
	if code := postJSON(t, base+"/jobs", req, &resp); code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, _ := getStatus(t, base, resp.ID, "?wait=2000")
		if st.State == serve.StateDone {
			break
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("job state %s", st.State)
		}
	}

	p.Signal(syscall.SIGTERM)
	if code := p.Wait(60 * time.Second); code != 0 {
		t.Fatalf("drained daemon exited %d, want 0\nstderr:\n%s", code, p.Stderr())
	}
	if !strings.Contains(p.Stderr(), "drained") {
		t.Fatalf("no drain confirmation in stderr:\n%s", p.Stderr())
	}

	// Terminal jobs survive restart as queryable history.
	_, base2 := daemon(t, state)
	st, code := getStatus(t, base2, resp.ID, "?runs=1")
	if code != http.StatusOK || st.State != serve.StateDone || len(st.Runs) != 1 {
		t.Fatalf("job after restart: HTTP %d, %+v", code, st)
	}
}
