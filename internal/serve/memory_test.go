package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mdacache/internal/core"
	"mdacache/internal/experiments"
)

// getBody fetches url and returns the HTTP status and the body.
func getBody(t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, body
}

// listEntry returns the raw GET /jobs entry of job id.
func listEntry(t *testing.T, base, id string) json.RawMessage {
	t.Helper()
	code, body := getBody(t, "GET", base+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("list: HTTP %d", code)
	}
	var list []json.RawMessage
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, e := range list {
		var st JobStatus
		if err := json.Unmarshal(e, &st); err != nil {
			t.Fatalf("list entry: %v", err)
		}
		if st.ID == id {
			return e
		}
	}
	t.Fatalf("job %s missing from GET /jobs", id)
	return nil
}

// TestTerminalJobsLeaveMemory pins where a finished job lives: its owner
// drops it from memory once its terminal record is durable, and from then on
// the owner and any other server on the state dir answer every query about
// it from the store, with the same bytes.
func TestTerminalJobsLeaveMemory(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	defer close(release)
	hold := mustSpec(t, smallSpec(28, 0))
	a, tsA := testServer(t, Options{StateDir: dir, Workers: 2,
		simulate: func(ctx context.Context, spec experiments.RunSpec, ins experiments.Instrument) (*core.Results, error) {
			if experiments.SpecKey(spec) == experiments.SpecKey(hold) {
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return experiments.RunWith(ctx, spec, ins)
		}})

	var finished []string
	for _, n := range []int{16, 20, 24} {
		var resp SubmitResponse
		doJSON(t, "POST", tsA.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(n, 0), smallSpec(n, 1)}}, &resp)
		if st := waitDone(t, tsA, resp.ID); st.State != StateDone {
			t.Fatalf("job %s: %s (%v)", resp.ID, st.State, st.Error)
		}
		finished = append(finished, resp.ID)
	}
	var live SubmitResponse
	doJSON(t, "POST", tsA.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(28, 0)}}, &live)
	waitFor(t, func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		_, ok := a.jobs[live.ID]
		return len(a.jobs) == 1 && ok
	})
	if h := a.Health(); h.Jobs != 1 {
		t.Fatalf("Health.Jobs = %d, want the 1 live job", h.Jobs)
	}

	// A second server on the same state dir holds none of them in memory.
	b, tsB := testServer(t, Options{StateDir: dir, NodeID: "b", Lease: time.Hour})
	if h := b.Health(); h.Jobs != 0 {
		t.Fatalf("second server holds %d jobs in memory, want 0", h.Jobs)
	}
	for _, id := range finished {
		for _, path := range []string{"/jobs/" + id, "/jobs/" + id + "?runs=1", "/jobs/" + id + "/events?from=2", "/jobs/" + id + "/events"} {
			codeA, bodyA := getBody(t, "GET", tsA.URL+path)
			codeB, bodyB := getBody(t, "GET", tsB.URL+path)
			if codeA != http.StatusOK || codeB != http.StatusOK || !bytes.Equal(bodyA, bodyB) {
				t.Fatalf("GET %s: owner HTTP %d, peer HTTP %d; bodies equal: %v\nowner %s\npeer  %s",
					path, codeA, codeB, bytes.Equal(bodyA, bodyB), bodyA, bodyB)
			}
		}
		var st JobStatus
		_, body := getBody(t, "GET", tsA.URL+"/jobs/"+id+"?runs=1")
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.Completed != 2 || len(st.Runs) != 2 || st.Runs[0].Results == nil {
			t.Fatalf("finished job %s served as %+v", id, st)
		}
		evs := readEvents(t, tsB.URL+"/jobs/"+id+"/events?from=2")
		if len(evs) != 3 || evs[0].Seq != 2 || evs[2].State != StateDone {
			t.Fatalf("replay from seq 2 of %s: %+v", id, evs)
		}
		if la, lb := listEntry(t, tsA.URL, id), listEntry(t, tsB.URL, id); !bytes.Equal(la, lb) {
			t.Fatalf("GET /jobs entry of %s: owner %s, peer %s", id, la, lb)
		}
		_, noRuns := getBody(t, "GET", tsA.URL+"/jobs/"+id)
		for _, base := range []string{tsA.URL, tsB.URL} {
			code, body := getBody(t, "DELETE", base+"/jobs/"+id)
			if code != http.StatusOK || !bytes.Equal(body, noRuns) {
				t.Fatalf("DELETE finished job %s: HTTP %d %s, want 200 with its status %s", id, code, body, noRuns)
			}
		}
	}

	// The live job is its owner's: the peer leaves it out of its listing and
	// redirects its stream and cancel.
	listEntry(t, tsA.URL, live.ID)
	for _, st := range b.Statuses() {
		if st.ID == live.ID {
			t.Fatalf("peer lists the owner's live job as %+v", st)
		}
	}
	for _, method := range []string{"GET", "DELETE"} {
		path := "/jobs/" + live.ID
		if method == "GET" {
			path += "/events"
		}
		if code, body := getBody(t, method, tsB.URL+path); code != http.StatusConflict {
			t.Fatalf("%s %s on a peer: HTTP %d %s, want 409 not_owner", method, path, code, body)
		}
	}
}

// TestFailedFinishStaysInMemory pins what a finish the store refuses does:
// with job.json and events.jsonl unwritable when the job ends, the owner
// keeps the job in memory and answers its terminal status, cancel and whole
// event stream from there. Once the store takes writes again, the fleet loop
// writes the terminal record and the log, and the job leaves memory with the
// store answering the same bytes.
func TestFailedFinishStaysInMemory(t *testing.T) {
	dir := t.TempDir()
	unwritable := func(path string) {
		if err := os.RemoveAll(path); err != nil {
			t.Error(err)
		}
		if err := os.MkdirAll(filepath.Join(path, "blocked"), 0o755); err != nil {
			t.Error(err)
		}
	}
	var jobDir string
	a, ts := testServer(t, Options{StateDir: dir, Lease: 300 * time.Millisecond,
		runSweep: func(ctx context.Context, specs []experiments.RunSpec, opt experiments.SweepOptions) ([]experiments.SweepRun, error) {
			runs, err := experiments.RunSweep(ctx, specs, opt)
			jobDir = filepath.Dir(opt.StatePath)
			unwritable(filepath.Join(jobDir, "job.json"))
			unwritable(filepath.Join(jobDir, "events.jsonl"))
			return runs, err
		}})
	a.store.retries = 0

	var resp SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0), smallSpec(16, 1)}}, &resp)
	id := resp.ID
	if st := waitDone(t, ts, id); st.State != StateDone {
		t.Fatalf("job %s: %s (%v)", id, st.State, st.Error)
	}
	held := func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		_, ok := a.jobs[id]
		return ok
	}
	if !held() {
		t.Fatal("a job whose terminal record did not reach the store left memory")
	}
	var st JobStatus
	_, withRuns := getBody(t, "GET", ts.URL+"/jobs/"+id+"?runs=1")
	if err := json.Unmarshal(withRuns, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || st.Completed != 2 || len(st.Runs) != 2 || st.Runs[0].Results == nil {
		t.Fatalf("held job served as %+v", st)
	}
	_, noRuns := getBody(t, "GET", ts.URL+"/jobs/"+id)
	if code, body := getBody(t, "DELETE", ts.URL+"/jobs/"+id); code != http.StatusOK || !bytes.Equal(body, noRuns) {
		t.Fatalf("DELETE held job: HTTP %d %s, want 200 with %s", code, body, noRuns)
	}
	if e := listEntry(t, ts.URL, id); !bytes.Equal(e, bytes.TrimSpace(noRuns)) {
		t.Fatalf("GET /jobs entry %s, want %s", e, noRuns)
	}
	_, stream := getBody(t, "GET", ts.URL+"/jobs/"+id+"/events")
	evs := readEvents(t, ts.URL+"/jobs/"+id+"/events")
	if n := len(evs); n < 3 || evs[n-1].State != StateDone || evs[n-1].Seq != uint64(n-1) {
		t.Fatalf("held job's stream: %+v", evs)
	}

	// Mend the store: the next fleet tick persists the finish.
	os.RemoveAll(filepath.Join(jobDir, "job.json"))
	os.RemoveAll(filepath.Join(jobDir, "events.jsonl"))
	waitFor(t, func() bool { return !held() })
	rec, err := a.store.loadJob(id)
	if err != nil || rec.State != StateDone || len(rec.Runs) != 2 {
		t.Fatalf("store after the retry: %+v, %v", rec.State, err)
	}
	for path, want := range map[string][]byte{"/jobs/" + id + "?runs=1": withRuns, "/jobs/" + id: noRuns, "/jobs/" + id + "/events": stream} {
		if code, body := getBody(t, "GET", ts.URL+path); code != http.StatusOK || !bytes.Equal(body, want) {
			t.Fatalf("GET %s from the store: HTTP %d\n got %s\nwant %s", path, code, body, want)
		}
	}
}

// BenchmarkStatuses times GET /jobs's listing over a history of 1,000
// finished jobs, each the fixture's two-run record, read from the store.
func BenchmarkStatuses(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("testdata", "terminal-job", "job.json"))
	if err != nil {
		b.Fatal(err)
	}
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	st, err := newStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		rec.ID = fmt.Sprintf("%016x", i)
		if err := st.saveJob(rec); err != nil {
			b.Fatal(err)
		}
	}
	s, err := New(Options{StateDir: dir})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := len(s.Statuses()); n != 1000 {
			b.Fatalf("listed %d jobs, want 1000", n)
		}
	}
}

// TestJobsShareSimSlots pins the server-wide simulation slots: overlapping
// jobs never run more than Workers simulations at once, a spec that several
// jobs name is simulated once, and a job cancelled while its runs wait for a
// slot ends without simulating them.
func TestJobsShareSimSlots(t *testing.T) {
	release := make(chan struct{})
	var (
		mu             sync.Mutex
		active, peak   int
		calls          = make(map[string]int)
		releaseOnce    sync.Once
		releaseRunning = func() { releaseOnce.Do(func() { close(release) }) }
	)
	defer releaseRunning()
	s, ts := testServer(t, Options{StateDir: t.TempDir(), Workers: 2, MaxActive: 3,
		simulate: func(ctx context.Context, spec experiments.RunSpec, ins experiments.Instrument) (*core.Results, error) {
			mu.Lock()
			active++
			peak = max(peak, active)
			calls[experiments.SpecKey(spec)]++
			mu.Unlock()
			defer func() {
				mu.Lock()
				active--
				mu.Unlock()
			}()
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			return &core.Results{Cycles: uint64(spec.N)}, nil
		}})
	spec := func(n int) SpecRequest { return smallSpec(n, 0) }
	key := func(n int) string { return experiments.SpecKey(mustSpec(t, spec(n))) }
	submit := func(ns ...int) string {
		req := SubmitRequest{}
		for _, n := range ns {
			req.Specs = append(req.Specs, spec(n))
		}
		var resp SubmitResponse
		if code := doJSON(t, "POST", ts.URL+"/jobs", req, &resp); code != http.StatusAccepted {
			t.Fatalf("submit %v: HTTP %d", ns, code)
		}
		return resp.ID
	}

	// Job A takes both slots; B and C, which overlap A and each other, run
	// alongside it but can only wait.
	jobA := submit(16, 20)
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return active == 2 })
	jobB := submit(20, 24)
	jobC := submit(24, 28)
	waitFor(t, func() bool { return s.Health().Running == 3 })
	time.Sleep(50 * time.Millisecond) // let B's and C's sweeps reach their waits

	var st JobStatus
	if code := doJSON(t, "DELETE", ts.URL+"/jobs/"+jobC, nil, &st); code != http.StatusOK {
		t.Fatalf("cancel C: HTTP %d", code)
	}
	if st := waitDone(t, ts, jobC); st.State != StateCancelled {
		t.Fatalf("job C: %s, want cancelled", st.State)
	}
	mu.Lock()
	nowActive, c24, c28 := active, calls[key(24)], calls[key(28)]
	mu.Unlock()
	if nowActive != 2 || c24 != 0 || c28 != 0 {
		t.Fatalf("after cancelling C: %d simulating, %d and %d runs of C's specs; want A's 2 and none of C's", nowActive, c24, c28)
	}

	releaseRunning()
	for _, id := range []string{jobA, jobB} {
		if st := waitDone(t, ts, id); st.State != StateDone || len(st.Runs) != 2 {
			t.Fatalf("job %s: %s, %d runs (%v)", id, st.State, len(st.Runs), st.Error)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak > 2 {
		t.Fatalf("%d simulations ran at once with 2 slots", peak)
	}
	want := map[string]int{key(16): 1, key(20): 1, key(24): 1}
	if !reflect.DeepEqual(calls, want) {
		t.Fatalf("simulations per spec = %v, want %v (the shared spec once, C's own never)", calls, want)
	}
}

// TestOldFormatJobServed loads a terminal job as an earlier version wrote it
// (indented job.json, its event log) and serves its status, runs and events
// as that version served them.
func TestOldFormatJobServed(t *testing.T) {
	const id = "4066f10b12ce0d84"
	fixture := filepath.Join("testdata", "terminal-job")
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", id)
	if err := os.MkdirAll(jobDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"job.json", "events.jsonl"} {
		if err := os.WriteFile(filepath.Join(jobDir, name), read(name), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, ts := testServer(t, Options{StateDir: dir})
	if h := s.Health(); h.Jobs != 0 {
		t.Fatalf("New loaded %d jobs into memory, want 0", h.Jobs)
	}

	for _, c := range []struct{ path, want string }{
		{"/jobs/" + id + "?runs=1", "status.json"},
		{"/jobs/" + id, "status-noruns.json"},
	} {
		code, body := getBody(t, "GET", ts.URL+c.path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", c.path, code)
		}
		var got, want JobStatus
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(read(c.want), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("GET %s differs from the earlier version's answer:\n got %s\nwant %s", c.path, body, read(c.want))
		}
		if len(want.Runs) > 0 {
			if err := experiments.DiffRunResults(want.Runs, got.Runs); err != nil {
				t.Fatal(err)
			}
		}
	}

	if code, body := getBody(t, "GET", ts.URL+"/jobs/"+id+"/events"); code != http.StatusOK || !bytes.Equal(body, read("events.jsonl")) {
		t.Fatalf("event replay: HTTP %d, bytes equal to the log: %v", code, bytes.Equal(body, read("events.jsonl")))
	}
	code, body := getBody(t, "GET", ts.URL+"/jobs/"+id+"/events?from=2")
	if code != http.StatusOK {
		t.Fatalf("replay from 2: HTTP %d", code)
	}
	decode := func(data []byte) []JobEvent {
		var evs []JobEvent
		for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
			var ev JobEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			evs = append(evs, ev)
		}
		return evs
	}
	if got, want := decode(body), decode(read("events-from2.jsonl")); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay from seq 2 differs from the earlier version's stream:\n got %s\nwant %s", body, read("events-from2.jsonl"))
	}
}
