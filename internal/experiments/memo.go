package experiments

import (
	"context"
	"errors"
	"sync"

	"mdacache/internal/core"
	"mdacache/internal/sim"
)

// Memo single-flights simulations by SpecKey: when two callers name the same
// design point, the first simulates and everyone else waits for — and shares
// — its results. Simulations are deterministic per spec, so sharing is sound.
// Suite memoises the figures' shared baselines through one; mdaserve shares
// design points across jobs through another.
//
// Outcomes that are NOT deterministic properties of the spec are never
// memoised: wall-clock timeouts and cancellations reflect the host and the
// caller, so the entry is dropped and the next caller simulates afresh. This
// mirrors the sweep checkpoint's timeout rule. Deterministic failures (a
// cycle budget, a bad spec) are shared like results.
type Memo struct {
	mu        sync.Mutex
	entries   map[string]*memoEntry
	cap       int // completed-entry bound; 0 = unbounded
	completed int // entries whose done channel has closed and that stayed memoised
}

type memoEntry struct {
	done chan struct{} // closed when res/err are set
	res  *core.Results
	err  error
}

// NewMemo returns a memo that holds at most capacity completed entries
// (0 = unbounded).
func NewMemo(capacity int) *Memo {
	return &Memo{entries: make(map[string]*memoEntry), cap: capacity}
}

// Do returns spec's outcome, calling run to simulate it unless another
// caller already has or is doing so. shared reports that the outcome came
// from (or was awaited on) another caller's run. A caller whose ctx ends
// while it waits gets sim.ErrTimeout on a deadline and the context's error
// on a cancellation.
func (m *Memo) Do(ctx context.Context, spec RunSpec, run func(context.Context, RunSpec) (*core.Results, error)) (res *core.Results, shared bool, err error) {
	key := SpecKey(spec)
	for {
		m.mu.Lock()
		e, ok := m.entries[key]
		if ok {
			m.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				// This caller's context ended while waiting: report the
				// run's own verdict, not the owner's.
				return nil, true, WaitError(ctx, "memo-wait")
			}
			if e.err == nil {
				return e.res, true, nil
			}
			if transientRunErr(e.err) {
				// The owner timed out or was cancelled; its entry is already
				// evicted. Loop and simulate ourselves.
				continue
			}
			return nil, true, e.err
		}
		e = &memoEntry{done: make(chan struct{})}
		m.evictLocked()
		m.entries[key] = e
		m.mu.Unlock()

		e.res, e.err = run(ctx, spec)
		m.mu.Lock()
		if transientRunErr(e.err) || (e.err != nil && ctx.Err() != nil) {
			// Don't poison the memo with a host-speed or cancel outcome.
			delete(m.entries, key)
		} else if m.entries[key] == e {
			// The entry is now a completed one and counts against the cap
			// (unless cap-pressure already evicted it while we ran).
			m.completed++
		}
		m.mu.Unlock()
		close(e.done)
		return e.res, false, e.err
	}
}

// WaitError is the error of a run whose ctx ended while it waited to start
// (op names the wait): a deadline is the run's timeout, sim.ErrTimeout; a
// cancellation (client cancel, drain) stays a cancellation and must not
// masquerade as one. Neither is a property of the spec, so a Memo never
// shares it.
func WaitError(ctx context.Context, op string) error {
	sentinel := error(sim.ErrTimeout)
	if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		sentinel = ctx.Err()
	}
	return &sim.Error{Component: "experiments", Op: op, Err: sentinel}
}

// transientRunErr reports whether err reflects the run's environment (budget,
// cancellation) rather than a deterministic property of the spec.
func transientRunErr(err error) bool {
	return err != nil && (errors.Is(err, sim.ErrTimeout) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))
}

// evictLocked bounds the memo: once cap *completed* entries accumulate, one
// is dropped (map order — effectively random, which is fine for a safety
// bound). The count deliberately excludes in-flight entries: counting them
// would let sustained in-flight pressure evict completed results long before
// the memo was actually full. In-flight entries themselves are never evicted — a
// waiter must always find its owner — and waiters already holding a pointer
// to an evicted completed entry still observe its result through e.done.
func (m *Memo) evictLocked() {
	if m.cap <= 0 || m.completed < m.cap {
		return
	}
	for k, e := range m.entries {
		select {
		case <-e.done:
			delete(m.entries, k)
			m.completed--
			return
		default:
		}
	}
}

// Len reports the current entry count, in-flight entries included.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
