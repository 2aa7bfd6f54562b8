package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mdacache/internal/experiments"
	"mdacache/internal/sim"
)

// smallSpec is a sub-second design point (same scaling the experiments
// package uses for its own tests).
func smallSpec(n int, seed uint64) SpecRequest {
	return SpecRequest{Bench: "sgemm", Design: "1P1L", N: n, Scale: 16, LLCKB: 1024, FaultSeed: seed}
}

func testServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url string, body interface{}, out interface{}) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decode %s %s (%d): %v\n%s", method, url, resp.StatusCode, err, data)
		}
	}
	return resp.StatusCode
}

// waitDone long-polls the job until it reaches a terminal state.
func waitDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st JobStatus
		code := doJSON(t, "GET", ts.URL+"/jobs/"+id+"?wait=2000&runs=1", nil, &st)
		if code != http.StatusOK {
			t.Fatalf("status %s: HTTP %d", id, code)
		}
		if st.State.Terminal() {
			return st
		}
	}
	t.Fatalf("job %s did not finish", id)
	return JobStatus{}
}

// TestSubmitToDone drives the happy path end to end over HTTP: submit, poll,
// and inspect the final runs (with their metric snapshots).
func TestSubmitToDone(t *testing.T) {
	_, ts := testServer(t, Options{StateDir: t.TempDir(), Workers: 2})

	var resp SubmitResponse
	code := doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{
		Specs: []SpecRequest{smallSpec(16, 0), smallSpec(24, 0)},
	}, &resp)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	if resp.ID == "" || resp.Deduped {
		t.Fatalf("submit response: %+v", resp)
	}

	st := waitDone(t, ts, resp.ID)
	if st.State != StateDone {
		t.Fatalf("state = %s (err %v), want done", st.State, st.Error)
	}
	if st.Specs != 2 || st.Completed != 2 || st.Failed != 0 {
		t.Fatalf("counts: %+v", st)
	}
	if len(st.Runs) != 2 {
		t.Fatalf("runs: %d, want 2", len(st.Runs))
	}
	for _, r := range st.Runs {
		if !r.OK() || r.Results == nil || r.Results.Cycles == 0 {
			t.Fatalf("run %s: %+v", r.Key, r)
		}
		if len(r.Results.Metrics.Counters) == 0 {
			t.Fatalf("run %s carries no metrics snapshot", r.Key)
		}
	}
	// Budget echo: the 30m default run timeout must be visible.
	if st.Budget.RunTimeoutMS != (30 * time.Minute).Milliseconds() {
		t.Fatalf("budget = %+v", st.Budget)
	}
}

// TestValidation covers the bad_request surface.
func TestValidation(t *testing.T) {
	_, ts := testServer(t, Options{StateDir: t.TempDir()})
	cases := []SubmitRequest{
		{}, // no specs
		{Specs: []SpecRequest{{Bench: "nope", Design: "1P1L"}}},  // bad bench
		{Specs: []SpecRequest{{Bench: "sgemm", Design: "9Z9Z"}}}, // bad design
		{Specs: []SpecRequest{{Bench: "sgemm", Design: "1P1L", Scale: -1}}},
		{Specs: []SpecRequest{{Bench: "sgemm", Design: "1P1L", WriteFailProb: 1.5}}},
	}
	for i, req := range cases {
		var aerr APIError
		code := doJSON(t, "POST", ts.URL+"/jobs", req, &aerr)
		if code != http.StatusBadRequest || aerr.Code != CodeBadRequest {
			t.Errorf("case %d: HTTP %d code %q", i, code, aerr.Code)
		}
	}

	var aerr APIError
	if code := doJSON(t, "GET", ts.URL+"/jobs/deadbeef", nil, &aerr); code != http.StatusNotFound || aerr.Code != CodeNotFound {
		t.Errorf("missing job: HTTP %d code %q", code, aerr.Code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/deadbeef", nil, &aerr); code != http.StatusNotFound {
		t.Errorf("cancel missing job: HTTP %d", code)
	}
}

// blockingSweep parks until released (or the sweep context dies), mimicking a
// long job without burning CPU.
func blockingSweep(release <-chan struct{}) func(context.Context, []experiments.RunSpec, experiments.SweepOptions) ([]experiments.SweepRun, error) {
	return func(ctx context.Context, specs []experiments.RunSpec, opt experiments.SweepOptions) ([]experiments.SweepRun, error) {
		select {
		case <-release:
			runs := make([]experiments.SweepRun, len(specs))
			for i, sp := range specs {
				runs[i] = experiments.SweepRun{Spec: sp, Key: experiments.SpecKey(sp), Attempts: 1}
			}
			return runs, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestAdmissionControl pins the overload contract: beyond MaxQueue the
// service sheds with 429/queue_full, and in-flight jobs are unharmed.
func TestAdmissionControl(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, Options{
		StateDir:  t.TempDir(),
		MaxQueue:  1,
		MaxActive: 1,
		runSweep:  blockingSweep(release),
	})

	submit := func(n int) (SubmitResponse, APIError, int) {
		var resp SubmitResponse
		var aerr APIError
		data, _ := json.Marshal(SubmitRequest{Specs: []SpecRequest{smallSpec(n, 0)}})
		hr, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer hr.Body.Close()
		body, _ := io.ReadAll(hr.Body)
		json.Unmarshal(body, &resp)
		json.Unmarshal(body, &aerr)
		return resp, aerr, hr.StatusCode
	}

	first, _, code := submit(16)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: HTTP %d", code)
	}
	// Wait until the dispatcher moved it into the running slot.
	waitFor(t, func() bool { return s.Health().Running == 1 })

	if _, _, code := submit(24); code != http.StatusAccepted {
		t.Fatalf("second submit (fills queue): HTTP %d", code)
	}
	_, aerr, code := submit(32)
	if code != http.StatusTooManyRequests || aerr.Code != CodeQueueFull {
		t.Fatalf("third submit: HTTP %d code %q, want 429 queue_full", code, aerr.Code)
	}

	// Shedding must not have touched the in-flight job.
	close(release)
	if st := waitDone(t, ts, first.ID); st.State != StateDone {
		t.Fatalf("first job: %s, want done", st.State)
	}
}

// TestDedupSingleFlight: an identical submission while the first is live
// returns the same job; a different budget is a different job.
func TestDedupSingleFlight(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	_, ts := testServer(t, Options{StateDir: t.TempDir(), runSweep: blockingSweep(release), MaxQueue: 8})

	req := SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}
	var a, b, c SubmitResponse
	if code := doJSON(t, "POST", ts.URL+"/jobs", req, &a); code != http.StatusAccepted {
		t.Fatalf("first: HTTP %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/jobs", req, &b); code != http.StatusOK {
		t.Fatalf("duplicate: HTTP %d", code)
	}
	if !b.Deduped || b.ID != a.ID {
		t.Fatalf("duplicate not single-flighted: %+v vs %+v", b, a)
	}
	other := req
	other.MaxCycles = 12345
	if code := doJSON(t, "POST", ts.URL+"/jobs", other, &c); code != http.StatusAccepted {
		t.Fatalf("different budget: HTTP %d", code)
	}
	if c.Deduped || c.ID == a.ID {
		t.Fatalf("different budget deduped onto %s", a.ID)
	}
}

// TestPanicIsolation: a panicking job runner fails that job with a structured
// panic error; the next job on the same server succeeds.
func TestPanicIsolation(t *testing.T) {
	real := experiments.RunSweep
	s, ts := testServer(t, Options{
		StateDir: t.TempDir(),
		Workers:  1,
		runSweep: func(ctx context.Context, specs []experiments.RunSpec, opt experiments.SweepOptions) ([]experiments.SweepRun, error) {
			if len(specs) == 2 {
				panic("injected: worker blew up")
			}
			return real(ctx, specs, opt)
		},
	})

	var bad SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{
		Specs: []SpecRequest{smallSpec(16, 0), smallSpec(24, 0)},
	}, &bad)
	st := waitDone(t, ts, bad.ID)
	if st.State != StateFailed {
		t.Fatalf("panicked job state = %s, want failed", st.State)
	}
	if st.Error == nil || st.Error.Code != string(sim.CodePanic) {
		t.Fatalf("panicked job error = %+v, want code panic", st.Error)
	}
	if st.Error.Sim == nil || st.Error.Sim.Code != sim.CodePanic ||
		!strings.Contains(st.Error.Sim.Message, "injected") {
		t.Fatalf("panicked job sim error = %+v", st.Error.Sim)
	}

	// The server survived: a healthy job still completes.
	var good SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 1)}}, &good)
	if st := waitDone(t, ts, good.ID); st.State != StateDone {
		t.Fatalf("follow-up job state = %s (err %v), want done", st.State, st.Error)
	}
	if h := s.Health(); h.Status != "ok" {
		t.Fatalf("health after panic: %+v", h)
	}
}

// TestCancel covers both cancellation paths: a queued job leaves the queue,
// a running job has its sweep context cancelled.
func TestCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := testServer(t, Options{StateDir: t.TempDir(), runSweep: blockingSweep(release), MaxQueue: 8, MaxActive: 1})

	var running, queued SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}, &running)
	waitFor(t, func() bool { return s.Health().Running == 1 })
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(24, 0)}}, &queued)

	var st JobStatus
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/"+queued.ID, nil, &st); code != http.StatusOK {
		t.Fatalf("cancel queued: HTTP %d", code)
	}
	if got := waitDone(t, ts, queued.ID); got.State != StateCancelled {
		t.Fatalf("queued job after cancel: %s", got.State)
	}

	doJSON(t, "DELETE", ts.URL+"/jobs/"+running.ID, nil, &st)
	got := waitDone(t, ts, running.ID)
	if got.State != StateCancelled {
		t.Fatalf("running job after cancel: %s", got.State)
	}
	if got.Error == nil || got.Error.Code != CodeCancelled {
		t.Fatalf("cancelled job error: %+v", got.Error)
	}
}

// TestJobDeadline: a job past its wall-clock deadline fails with the timeout
// code.
func TestJobDeadline(t *testing.T) {
	never := make(chan struct{})
	defer close(never)
	_, ts := testServer(t, Options{StateDir: t.TempDir(), runSweep: blockingSweep(never)})

	var resp SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{
		Specs:      []SpecRequest{smallSpec(16, 0)},
		DeadlineMS: 50,
	}, &resp)
	st := waitDone(t, ts, resp.ID)
	if st.State != StateFailed {
		t.Fatalf("state = %s, want failed", st.State)
	}
	if st.Error == nil || st.Error.Code != string(sim.CodeTimeout) {
		t.Fatalf("error = %+v, want timeout", st.Error)
	}
}

// TestDrainingRejectsSubmissions: during Shutdown, new work is shed with
// 503/draining and queued jobs are parked as shed.
func TestDrainingRejectsSubmissions(t *testing.T) {
	release := make(chan struct{})
	s, err := New(Options{StateDir: t.TempDir(), runSweep: blockingSweep(release), MaxQueue: 8, MaxActive: 1, DrainTimeout: 5 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var running, queued SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}, &running)
	waitFor(t, func() bool { return s.Health().Running == 1 })
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(24, 0)}}, &queued)

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	waitFor(t, func() bool { return s.Health().Status == "draining" })

	var aerr APIError
	code := doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(32, 0)}}, &aerr)
	if code != http.StatusServiceUnavailable || aerr.Code != CodeDraining {
		t.Fatalf("submit during drain: HTTP %d code %q", code, aerr.Code)
	}

	// The queued job must have been parked, not lost.
	var st JobStatus
	doJSON(t, "GET", ts.URL+"/jobs/"+queued.ID, nil, &st)
	if st.State != StateShed {
		t.Fatalf("queued job during drain: %s, want shed", st.State)
	}

	close(release) // let the running job finish inside the drain window
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	doJSON(t, "GET", ts.URL+"/jobs/"+running.ID, nil, &st)
	if st.State != StateDone {
		t.Fatalf("running job after graceful drain: %s, want done", st.State)
	}
}

// TestRestartResume is the in-process half of the crash-recovery acceptance
// criterion: interrupt a real sweep mid-flight via drain, restart a server on
// the same state dir, and require the resumed job's results to be
// DiffRunResults-identical to an uninterrupted golden run.
func TestRestartResume(t *testing.T) {
	dir := t.TempDir()
	specs := []SpecRequest{
		smallSpec(16, 0), smallSpec(20, 0), smallSpec(24, 0),
		smallSpec(28, 0), smallSpec(32, 0), smallSpec(36, 0),
	}
	req := SubmitRequest{Specs: specs}

	// Golden: the same work, uninterrupted, straight through RunSweep.
	var goldenSpecs []experiments.RunSpec
	for _, sr := range specs {
		sp, err := sr.Spec()
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		sp.Timeout = 30 * time.Minute // mirror the server's default budget
		goldenSpecs = append(goldenSpecs, sp)
	}
	golden, err := experiments.RunSweep(context.Background(), goldenSpecs, experiments.SweepOptions{Workers: 2})
	if err != nil {
		t.Fatalf("golden sweep: %v", err)
	}

	s1, err := New(Options{StateDir: dir, Workers: 1, DrainTimeout: time.Millisecond, CacheSpecs: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	var resp SubmitResponse
	doJSON(t, "POST", ts1.URL+"/jobs", req, &resp)

	// Interrupt after at least one run has completed so resume has real
	// checkpoint state to reload.
	waitFor(t, func() bool {
		var st JobStatus
		doJSON(t, "GET", ts1.URL+"/jobs/"+resp.ID, nil, &st)
		return st.Completed >= 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	s1.Shutdown(ctx)
	cancel()
	ts1.Close()

	var st JobStatus
	// Interrupted mid-run: parked as checkpointed (or done if the sweep won
	// the race with the 1ms drain window).
	if s, ok := s1.Status(resp.ID, false); !ok || (s.State != StateCheckpointed && s.State != StateDone) {
		t.Fatalf("after drain: %+v", s)
	}

	// Restart on the same state dir: the job is re-admitted and resumes.
	s2, ts2 := testServer(t, Options{StateDir: dir, Workers: 2, CacheSpecs: -1})
	if _, ok := s2.Job(resp.ID); !ok {
		t.Fatalf("job %s not re-admitted after restart", resp.ID)
	}
	st = waitDone(t, ts2, resp.ID)
	if st.State != StateDone {
		t.Fatalf("resumed job: %s (err %v), want done", st.State, st.Error)
	}
	if st.Resumed == 0 {
		t.Fatalf("resumed job re-simulated everything (resumed=0): %+v", st)
	}
	if err := experiments.DiffRunResults(golden, st.Runs); err != nil {
		t.Fatalf("resumed results differ from uninterrupted run: %v", err)
	}
}

// TestEventsStream reads the NDJSON stream end to end and pins the event
// contract: dense sequence numbers, a queued→running→done state arc, and one
// run event per spec carrying metrics.
func TestEventsStream(t *testing.T) {
	_, ts := testServer(t, Options{StateDir: t.TempDir(), Workers: 2})

	var resp SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{
		Specs: []SpecRequest{smallSpec(16, 0), smallSpec(24, 0)},
	}, &resp)

	hr, err := http.Get(ts.URL + "/jobs/" + resp.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}

	var events []JobEvent
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, sc.Text())
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}

	var states []State
	runs := 0
	for i, ev := range events {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d has seq %d (gap or duplicate)", i, ev.Seq)
		}
		if ev.JobID != resp.ID {
			t.Fatalf("event %d for wrong job %s", i, ev.JobID)
		}
		switch ev.Type {
		case "state":
			states = append(states, ev.State)
		case "run":
			runs++
			if ev.Run == nil || ev.Run.Cycles == 0 || ev.Run.Metrics == nil {
				t.Fatalf("run event %d incomplete: %+v", i, ev.Run)
			}
		default:
			t.Fatalf("event %d has unknown type %q", i, ev.Type)
		}
	}
	want := fmt.Sprintf("%v", []State{StateQueued, StateRunning, StateDone})
	if got := fmt.Sprintf("%v", states); got != want {
		t.Fatalf("state arc %v, want %v", got, want)
	}
	if runs != 2 {
		t.Fatalf("saw %d run events, want 2", runs)
	}
}

// TestSpecCacheSingleFlight: two distinct jobs naming the same spec (only
// their job-level deadlines differ, so the spec keys are identical) share one
// simulation through the cross-job cache.
func TestSpecCacheSingleFlight(t *testing.T) {
	s, ts := testServer(t, Options{StateDir: t.TempDir(), Workers: 1, MaxActive: 1, MaxQueue: 8})

	var a, b SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}, &a)
	// A deadline-only budget change defeats job-level dedup but leaves the
	// RunSpec — and so the cache key — unchanged.
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}, DeadlineMS: 1 << 40}, &b)
	if a.ID == b.ID {
		t.Fatal("jobs unexpectedly deduped; the test needs two distinct jobs")
	}
	sta := waitDone(t, ts, a.ID)
	stb := waitDone(t, ts, b.ID)
	if sta.State != StateDone || stb.State != StateDone {
		t.Fatalf("states: %s / %s", sta.State, stb.State)
	}
	if s.cache == nil || s.cache.len() != 1 {
		t.Fatalf("spec cache should hold exactly the one shared entry")
	}
	if len(sta.Runs) != 1 || len(stb.Runs) != 1 || !sta.Runs[0].OK() || !stb.Runs[0].OK() {
		t.Fatalf("runs: %+v / %+v", sta.Runs, stb.Runs)
	}
	if err := experiments.DiffRunResults(sta.Runs, stb.Runs); err != nil {
		t.Fatalf("shared spec produced different results: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached within 60s")
}

// TestSubmitShutdownRaceDurable: a submission whose persistence write is in
// flight when Shutdown begins must not be enqueued after the queue was shed —
// that would accept a job that never runs and is never parked. The job is
// parked as shed and the restarted daemon runs it.
func TestSubmitShutdownRaceDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{StateDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	inPersist := make(chan struct{})
	unblock := make(chan struct{})
	s.testPostPersist = func() { close(inPersist); <-unblock }

	type result struct {
		resp SubmitResponse
		aerr *APIError
	}
	submitted := make(chan result, 1)
	go func() {
		resp, aerr := s.Submit(SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}})
		submitted <- result{resp, aerr}
	}()
	<-inPersist

	// Shutdown wins the race: it sheds the (empty) queue and marks draining
	// while the submission is still mid-persist.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	close(unblock)

	r := <-submitted
	if r.aerr != nil {
		t.Fatalf("submit during shutdown race: %v", r.aerr)
	}
	if r.resp.State != StateShed {
		t.Fatalf("submit during shutdown race: state %s, want shed", r.resp.State)
	}

	// The shed job is durable: a restart re-admits and runs it.
	s2, ts2 := testServer(t, Options{StateDir: dir, Workers: 2})
	if _, ok := s2.Job(r.resp.ID); !ok {
		t.Fatalf("job %s not re-admitted after restart", r.resp.ID)
	}
	if st := waitDone(t, ts2, r.resp.ID); st.State != StateDone {
		t.Fatalf("re-admitted job: %s (err %v), want done", st.State, st.Error)
	}
}

// TestNewRequiresStateDir: every server is durable, so New refuses to build
// one without a state dir and says which option is missing.
func TestNewRequiresStateDir(t *testing.T) {
	s, err := New(Options{})
	if err == nil {
		s.Shutdown(context.Background())
		t.Fatal("New without StateDir: no error")
	}
	if !strings.Contains(err.Error(), "StateDir") {
		t.Fatalf("New without StateDir: %v, want it to name StateDir", err)
	}
}

// TestWedgedEventsClientDoesNotStallJob is the regression for the worst
// failure mode of a blocking broker: an events client that stops reading
// while the job publishes far more than every buffer in the path can absorb.
// Publication must keep completing (it runs on the job worker path), the job
// must finish, and once the client finally reads it must still receive the
// complete, dense-seq stream via the broker's catch-up protocol.
func TestWedgedEventsClientDoesNotStallJob(t *testing.T) {
	release := make(chan struct{})
	s, ts := testServer(t, Options{StateDir: t.TempDir(), runSweep: blockingSweep(release)})

	var resp SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}, &resp)
	waitFor(t, func() bool { return s.Health().Running == 1 })
	j, ok := s.Job(resp.ID)
	if !ok {
		t.Fatalf("job %s not found", resp.ID)
	}

	// Connect a client that reads nothing: the handler will block writing to
	// it, its broker subscriber will overrun and be force-detached.
	hr, err := http.Get(ts.URL + "/jobs/" + resp.ID + "/events")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer hr.Body.Close()

	// Flood the stream well past the subscriber buffer and the kernel socket
	// buffers. Before the non-blocking broker, publish #buffer+1 would hang
	// the worker path forever; the timeout here is the regression assertion.
	const flood = 2000
	pad := strings.Repeat("x", 1024)
	floodDone := make(chan struct{})
	go func() {
		for i := 0; i < flood; i++ {
			s.publish(j, func(ev *JobEvent) { ev.Type = "run"; ev.Run = &RunEvent{Spec: pad} })
		}
		close(floodDone)
	}()
	select {
	case <-floodDone:
	case <-time.After(30 * time.Second):
		t.Fatal("publish stalled behind a wedged events client")
	}

	// The job itself is unharmed: it finishes, and finishJob's own publishes
	// (which would also have wedged) complete.
	close(release)
	if st := waitDone(t, ts, resp.ID); st.State != StateDone {
		t.Fatalf("job: %s (err %v), want done", st.State, st.Error)
	}

	// Now drain the stream: despite the overrun the client must see every
	// event exactly once, in seq order.
	var seen uint64
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, sc.Text())
		}
		if ev.Seq != seen {
			t.Fatalf("event seq %d at position %d (gap or duplicate)", ev.Seq, seen)
		}
		seen++
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	// queued + running + flood + done ≤ seen (run events from the sweep are 0
	// with the blocking stub).
	if want := uint64(flood + 3); seen != want {
		t.Fatalf("saw %d events, want %d", seen, want)
	}
}

// TestPublishSeqOrder hammers publish from concurrent goroutines (the Cancel
// vs onRun race) and requires both the broker history and the on-disk event
// log to hold densely increasing sequence numbers.
func TestPublishSeqOrder(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{StateDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	j := newJob("seqrace", "k", nil, Budget{}, time.Now())
	if err := s.persist(j); err != nil {
		t.Fatalf("persist: %v", err)
	}
	const publishers, each = 8, 50
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				s.publish(j, func(ev *JobEvent) { ev.Type = "state"; ev.State = StateRunning })
			}
		}()
	}
	wg.Wait()

	hist := j.broker.History()
	if len(hist) != publishers*each {
		t.Fatalf("history holds %d events, want %d", len(hist), publishers*each)
	}
	for i, ev := range hist {
		if ev.Seq != uint64(i) {
			t.Fatalf("history[%d].Seq = %d: out of order", i, ev.Seq)
		}
	}

	data, err := os.ReadFile(s.store.eventsPath(j.id))
	if err != nil {
		t.Fatalf("read event log: %v", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	var n uint64
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad log line: %v\n%s", err, sc.Text())
		}
		if ev.Seq != n {
			t.Fatalf("log line %d has seq %d: out of order", n, ev.Seq)
		}
		n++
	}
	if n != uint64(publishers*each) {
		t.Fatalf("log holds %d events, want %d", n, publishers*each)
	}
}

// TestCacheWaitCancelledVsTimeout: a waiter whose context ends while another
// job's run is in flight must report what actually happened — cancellation as
// cancelled, deadline expiry as timeout — not mislabel every exit a timeout.
func TestCacheWaitCancelledVsTimeout(t *testing.T) {
	spec, err := smallSpec(16, 0).Spec()
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	c := newSpecCache(4)
	// An in-flight owner that never finishes, so the waiter's own context
	// decides the outcome.
	c.entries[experiments.SpecKey(spec)] = &cacheEntry{done: make(chan struct{})}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, werr := c.run(ctx, spec, experiments.Instrument{})
	if !shared {
		t.Fatal("waiter must report shared")
	}
	if code := sim.CodeOf(werr); code != sim.CodeCancelled || !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled waiter: code %q err %v, want %q wrapping context.Canceled", code, werr, sim.CodeCancelled)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	_, _, werr = c.run(dctx, spec, experiments.Instrument{})
	if code := sim.CodeOf(werr); code != sim.CodeTimeout || !errors.Is(werr, sim.ErrTimeout) {
		t.Fatalf("deadline waiter: code %q err %v, want %q wrapping ErrTimeout", code, werr, sim.CodeTimeout)
	}
}
