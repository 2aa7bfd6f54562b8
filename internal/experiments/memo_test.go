package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdacache/internal/core"
	"mdacache/internal/obs"
	"mdacache/internal/sim"
)

// sizedSpec is a small sgemm baseline spec of dimension n.
func sizedSpec(n int) RunSpec {
	spec := testSpec("sgemm", core.D0Baseline)
	spec.N = n
	return spec
}

// TestCacheCapSparesInFlight is the regression for cap-pressure racing an
// in-flight owner: the cap bounds *completed* entries only, so a slow
// simulation with waiters attached must never be evicted while other specs
// churn the memo — eviction would detach the waiters from their owner and
// make a second caller re-simulate the same spec. Run under -race.
func TestCacheCapSparesInFlight(t *testing.T) {
	slow := sizedSpec(16)
	slowKey := SpecKey(slow)
	fillers := []RunSpec{sizedSpec(20), sizedSpec(24), sizedSpec(28), sizedSpec(32)}

	c := NewMemo(1)
	started := make(chan struct{})
	release := make(chan struct{})
	var slowRuns atomic.Int64
	runFn := func(ctx context.Context, spec RunSpec) (*core.Results, error) {
		if SpecKey(spec) == slowKey {
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
			res, shared, err := c.Do(context.Background(), slow, runFn)
			results[i] = outcome{res, shared, err}
		}()
	}
	run(0) // the owner: inserts the in-flight entry, then blocks in runFn
	<-started
	run(1) // a waiter: finds the entry (it must still be there) and parks

	// Cap pressure while the slow spec is in flight: four completed entries
	// cycle through a cap-1 memo. None of this may touch the owner.
	for _, sp := range fillers {
		if _, _, err := c.Do(context.Background(), sp, runFn); err != nil {
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

// TestCacheWaitCancelledVsTimeout: a waiter whose context ends while another
// caller's run is in flight must report what actually happened — cancellation
// as cancelled, deadline expiry as timeout — not mislabel every exit a timeout.
func TestCacheWaitCancelledVsTimeout(t *testing.T) {
	spec := sizedSpec(16)
	c := NewMemo(4)
	// An in-flight owner that never finishes, so the waiter's own context
	// decides the outcome.
	c.entries[SpecKey(spec)] = &memoEntry{done: make(chan struct{})}
	neverRun := func(context.Context, RunSpec) (*core.Results, error) {
		t.Error("a waiter simulated the spec")
		return nil, errors.New("unreachable")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, shared, werr := c.Do(ctx, spec, neverRun)
	if !shared {
		t.Fatal("waiter must report shared")
	}
	if code := sim.CodeOf(werr); code != sim.CodeCancelled || !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled waiter: code %q err %v, want %q wrapping context.Canceled", code, werr, sim.CodeCancelled)
	}

	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	_, _, werr = c.Do(dctx, spec, neverRun)
	if code := sim.CodeOf(werr); code != sim.CodeTimeout || !errors.Is(werr, sim.ErrTimeout) {
		t.Fatalf("deadline waiter: code %q err %v, want %q wrapping ErrTimeout", code, werr, sim.CodeTimeout)
	}
}

// TestSuiteMemoSingleFlight: concurrent figure code asking for one design
// point simulates it once and hands every caller the same results. Run
// under -race.
func TestSuiteMemoSingleFlight(t *testing.T) {
	s := NewSuite(16, nil)
	s.Profiles = &obs.ProfileLog{}
	spec := RunSpec{Bench: "sgemm", N: 16, Design: core.D1DiffSet, LLCBytes: core.MB}

	const callers = 8
	results := make([]*core.Results, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.run(spec)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different *core.Results than caller 0", i)
		}
	}
	if n := len(s.Profiles.Profiles()); n != 1 {
		t.Fatalf("%d profiles recorded, want 1 simulation", n)
	}
}

// TestSuiteMemoSharesFailure: a cycle-budget failure is a deterministic
// property of the spec, so the suite's second request for the spec returns
// the first outcome instead of simulating again.
func TestSuiteMemoSharesFailure(t *testing.T) {
	var log bytes.Buffer
	s := NewSuite(16, &log)
	s.MaxCycles = 100
	spec := RunSpec{Bench: "sgemm", N: 16, Design: core.D1DiffSet, LLCBytes: core.MB}

	_, err1 := s.run(spec)
	_, err2 := s.run(spec)
	if !errors.Is(err1, sim.ErrCycleLimit) {
		t.Fatalf("first run: %v, want ErrCycleLimit", err1)
	}
	if err2 != err1 {
		t.Fatalf("second run returned %v, want the first run's error %v", err2, err1)
	}
	if n := strings.Count(log.String(), "running "); n != 1 {
		t.Fatalf("%d 'running' lines, want 1 simulation:\n%s", n, log.String())
	}
}
