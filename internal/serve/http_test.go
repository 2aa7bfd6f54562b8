package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// TestRetryAfterQueueFullGrows pins the queue_full hint derivation: the wait
// grows with queue depth (n jobs ahead drain at mean/MaxActive each) and
// steepens as the measured mean job duration rises — replacing the old
// hardcoded "Retry-After: 1".
func TestRetryAfterQueueFullGrows(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s, ts := testServer(t, Options{StateDir: t.TempDir(), runSweep: blockingSweep(release), MaxActive: 1, MaxQueue: 2})

	s.mu.Lock()
	h1 := s.retryAfterQueueFullLocked(1)
	h4 := s.retryAfterQueueFullLocked(4)
	h16 := s.retryAfterQueueFullLocked(16)
	s.mu.Unlock()
	// Seeded 1s mean, one slot: n×1000ms.
	if h1 != 1000 || h4 != 4000 || h16 != 16000 {
		t.Fatalf("hints with seeded mean: %d/%d/%d, want 1000/4000/16000", h1, h4, h16)
	}

	// A measured mean steepens the hint.
	s.observeJobDuration(10 * time.Second)
	s.mu.Lock()
	h4 = s.retryAfterQueueFullLocked(4)
	big := s.retryAfterQueueFullLocked(1000)
	s.mu.Unlock()
	if h4 != 40000 {
		t.Fatalf("hint with 10s mean: %d, want 40000", h4)
	}
	if big != 5*60*1000 {
		t.Fatalf("hint must clamp at 5m, got %d", big)
	}

	// End to end: fill the queue (1 running + 2 queued) and the shed 429
	// carries the typed hint in the body with the rounded header to match.
	for i, n := range []int{16, 24, 32} {
		var resp SubmitResponse
		if code := doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(n, 0)}}, &resp); code != http.StatusAccepted {
			t.Fatalf("submit %d: HTTP %d", i, code)
		}
		if i == 0 {
			waitFor(t, func() bool { return s.Health().Running == 1 })
		}
	}
	data, _ := json.Marshal(SubmitRequest{Specs: []SpecRequest{smallSpec(40, 0)}})
	hr, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer hr.Body.Close()
	var aerr APIError
	if err := json.NewDecoder(hr.Body).Decode(&aerr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if hr.StatusCode != http.StatusTooManyRequests || aerr.Code != CodeQueueFull {
		t.Fatalf("shed submit: HTTP %d code %q", hr.StatusCode, aerr.Code)
	}
	// Two jobs ahead at a 10s mean on one slot: 20s, not the old constant 1.
	if aerr.RetryAfterMS != 20000 {
		t.Fatalf("RetryAfterMS = %d, want 20000", aerr.RetryAfterMS)
	}
	if got := hr.Header.Get("Retry-After"); got != strconv.FormatInt((aerr.RetryAfterMS+999)/1000, 10) {
		t.Fatalf("Retry-After header %q does not round the typed hint %d", got, aerr.RetryAfterMS)
	}
}

// TestLongPollSettlesOnDrain is the regression for the stale-job long-poll
// window: a poll that snapshot a queued job before Shutdown parked it as shed
// used to sleep out its entire wait budget on a dead handle. The re-check loop
// must answer as soon as the job settles.
func TestLongPollSettlesOnDrain(t *testing.T) {
	release := make(chan struct{})
	s, err := New(Options{StateDir: t.TempDir(), runSweep: blockingSweep(release), MaxActive: 1, MaxQueue: 8, DrainTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var running, queued SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(16, 0)}}, &running)
	waitFor(t, func() bool { return s.Health().Running == 1 })
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(24, 0)}}, &queued)

	// Park a long-poll on the queued job with a wait far beyond the test's
	// patience; only the drain transition below can answer it in time.
	type pollResult struct {
		st      JobStatus
		code    int
		elapsed time.Duration
	}
	pr := make(chan pollResult, 1)
	go func() {
		start := time.Now()
		resp, err := http.Get(ts.URL + "/jobs/" + queued.ID + "?wait=120000")
		if err != nil {
			t.Errorf("long-poll: %v", err)
			pr <- pollResult{}
			return
		}
		defer resp.Body.Close()
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		pr <- pollResult{st, resp.StatusCode, time.Since(start)}
	}()
	time.Sleep(200 * time.Millisecond) // let the poll reach its wait loop

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	select {
	case res := <-pr:
		if res.code != http.StatusOK || res.st.State != StateShed {
			t.Fatalf("long-poll answered HTTP %d state %s, want 200 shed", res.code, res.st.State)
		}
		if res.elapsed > 30*time.Second {
			t.Fatalf("long-poll took %s; it slept on a stale handle", res.elapsed)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("long-poll still parked 30s after the drain shed its job")
	}

	// While draining, the typed 503 hints the remaining drain budget.
	waitFor(t, func() bool { return s.Health().Status == "draining" })
	var aerr APIError
	if code := doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{smallSpec(32, 0)}}, &aerr); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: HTTP %d", code)
	}
	if aerr.RetryAfterMS < 1000 || aerr.RetryAfterMS > 30000 {
		t.Fatalf("draining RetryAfterMS = %d, want within the 30s drain budget", aerr.RetryAfterMS)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestEventsResumeFrom: ?from= resumes the NDJSON stream mid-history, the
// contract the fleet client's reconnect path depends on.
func TestEventsResumeFrom(t *testing.T) {
	_, ts := testServer(t, Options{StateDir: t.TempDir(), Workers: 2})

	var resp SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{
		Specs: []SpecRequest{smallSpec(16, 0), smallSpec(24, 0)},
	}, &resp)
	waitDone(t, ts, resp.ID)

	// Full stream: queued, running, 2 runs, done = seqs 0..4.
	all := readEvents(t, ts.URL+"/jobs/"+resp.ID+"/events")
	if len(all) != 5 {
		t.Fatalf("full stream has %d events, want 5", len(all))
	}

	resumed := readEvents(t, ts.URL+"/jobs/"+resp.ID+"/events?from=2")
	if len(resumed) != 3 {
		t.Fatalf("resumed stream has %d events, want 3", len(resumed))
	}
	for i, ev := range resumed {
		if ev.Seq != uint64(i+2) {
			t.Fatalf("resumed event %d has seq %d, want %d", i, ev.Seq, i+2)
		}
	}
	last := resumed[len(resumed)-1]
	if last.Type != "state" || last.State != StateDone {
		t.Fatalf("resumed stream does not end terminal: %+v", last)
	}

	hr, err := http.Get(ts.URL + "/jobs/" + resp.ID + "/events?from=-1")
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative from: HTTP %d, want 400", hr.StatusCode)
	}
}

func readEvents(t *testing.T, url string) []JobEvent {
	t.Helper()
	hr, err := http.Get(url)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("events: HTTP %d", hr.StatusCode)
	}
	var evs []JobEvent
	sc := bufio.NewScanner(hr.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line: %v\n%s", err, sc.Text())
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream: %v", err)
	}
	return evs
}
