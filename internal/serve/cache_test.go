package serve

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"mdacache/internal/core"
	"mdacache/internal/experiments"
)

// TestCacheCapSparesInFlight is the regression for cap-pressure racing an
// in-flight owner: the cap bounds *completed* entries only, so a slow
// simulation with waiters attached must never be evicted while other specs
// churn the cache — eviction would detach the waiters from their owner and
// make a second caller re-simulate the same spec. Run under -race.
func TestCacheCapSparesInFlight(t *testing.T) {
	slow := mustSpec(t, smallSpec(16, 0))
	slowKey := experiments.SpecKey(slow)
	fillers := []experiments.RunSpec{
		mustSpec(t, smallSpec(20, 0)), mustSpec(t, smallSpec(24, 0)),
		mustSpec(t, smallSpec(28, 0)), mustSpec(t, smallSpec(32, 0)),
	}

	c := newSpecCache(1)
	started := make(chan struct{})
	release := make(chan struct{})
	var slowRuns atomic.Int64
	c.runFn = func(ctx context.Context, spec experiments.RunSpec, ins experiments.Instrument) (*core.Results, error) {
		if experiments.SpecKey(spec) == slowKey {
			if slowRuns.Add(1) == 1 {
				close(started)
			}
			<-release
		}
		return &core.Results{Cycles: uint64(spec.N)}, nil
	}

	type outcome struct {
		res    *core.Results
		shared bool
		err    error
	}
	results := make([]outcome, 2)
	var wg sync.WaitGroup
	run := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, shared, err := c.run(context.Background(), slow, experiments.Instrument{})
			results[i] = outcome{res, shared, err}
		}()
	}
	run(0) // the owner: inserts the in-flight entry, then blocks in runFn
	<-started
	run(1) // a waiter: finds the entry (it must still be there) and parks

	// Cap pressure while the slow spec is in flight: four completed entries
	// cycle through a cap-1 cache. None of this may touch the owner.
	for _, sp := range fillers {
		if _, _, err := c.run(context.Background(), sp, experiments.Instrument{}); err != nil {
			t.Fatalf("filler run: %v", err)
		}
	}
	c.mu.Lock()
	_, alive := c.entries[slowKey]
	completed := c.completed
	c.mu.Unlock()
	if !alive {
		t.Fatal("cap pressure evicted the in-flight entry out from under its waiters")
	}
	if completed > 1 {
		t.Fatalf("completed-entry count %d exceeds cap 1", completed)
	}

	close(release)
	wg.Wait()
	for i, o := range results {
		if o.err != nil || o.res == nil || o.res.Cycles != uint64(slow.N) {
			t.Fatalf("caller %d: %+v", i, o)
		}
	}
	if results[0].shared == results[1].shared {
		t.Fatalf("want exactly one owner and one waiter, got shared=%v/%v",
			results[0].shared, results[1].shared)
	}
	if n := slowRuns.Load(); n != 1 {
		t.Fatalf("slow spec simulated %d times, want 1 (waiter detached by eviction?)", n)
	}
}

// TestJobKeepsTechVariantsApart submits one job whose two specs differ only
// in memory technology. The spec cache and the job checkpoint are keyed by
// experiments.SpecKey, so both runs must come back with their own results:
// the ones experiments.Run gives for each spec.
func TestJobKeepsTechVariantsApart(t *testing.T) {
	_, ts := testServer(t, Options{StateDir: t.TempDir()})
	stt := SpecRequest{Bench: "sgemm", Design: "1P2L", N: 16, Scale: 16}
	reram := stt
	reram.Tech = "reram"

	var resp SubmitResponse
	doJSON(t, "POST", ts.URL+"/jobs", SubmitRequest{Specs: []SpecRequest{stt, reram}}, &resp)
	st := waitDone(t, ts, resp.ID)
	if st.State != StateDone || len(st.Runs) != 2 {
		t.Fatalf("job: state %s, %d runs (err %v)", st.State, len(st.Runs), st.Error)
	}
	for i, req := range []SpecRequest{stt, reram} {
		want, err := experiments.Run(mustSpec(t, req))
		if err != nil {
			t.Fatal(err)
		}
		if got := st.Runs[i].Results; got == nil || got.Cycles != want.Cycles {
			t.Fatalf("run %d (%s): served %+v, direct run %d cycles", i, req.Tech, got, want.Cycles)
		}
	}
	if st.Runs[0].Results.Cycles == st.Runs[1].Results.Cycles {
		t.Fatalf("stt and reram both ran %d cycles", st.Runs[0].Results.Cycles)
	}
}
