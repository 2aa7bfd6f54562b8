package serve

import (
	"context"
	"errors"
	"sync"

	"mdacache/internal/core"
	"mdacache/internal/experiments"
	"mdacache/internal/sim"
)

// specCache single-flights identical RunSpecs across jobs, Suite-style: when
// two queued jobs (or two specs within one job) name the same design point,
// the first caller simulates and everyone else waits for — and shares — its
// results. Simulations are deterministic per spec, so sharing is sound; the
// per-job checkpoints still record the shared results under their own files.
//
// Outcomes that are NOT deterministic properties of the spec are never
// cached: wall-clock timeouts and cancellations reflect the host and the
// caller, so the entry is dropped and the next caller simulates afresh. This
// mirrors the sweep checkpoint's timeout rule.
type specCache struct {
	mu        sync.Mutex
	entries   map[string]*cacheEntry
	cap       int // completed-entry bound; 0 = unbounded
	completed int // entries whose done channel has closed and that stayed cached

	// runFn replaces the simulation call (tests: slow or counting runs).
	runFn func(ctx context.Context, spec experiments.RunSpec, ins experiments.Instrument) (*core.Results, error)
}

type cacheEntry struct {
	done chan struct{} // closed when res/err are set
	res  *core.Results
	err  error
}

func newSpecCache(capacity int) *specCache {
	return &specCache{
		entries: make(map[string]*cacheEntry),
		cap:     capacity,
		runFn:   experiments.RunWith,
	}
}

// run executes spec through the cache. shared reports that the results came
// from (or were awaited on) another caller's simulation.
func (c *specCache) run(ctx context.Context, spec experiments.RunSpec, ins experiments.Instrument) (res *core.Results, shared bool, err error) {
	key := experiments.SpecKey(spec)
	for {
		c.mu.Lock()
		e, ok := c.entries[key]
		if ok {
			c.mu.Unlock()
			select {
			case <-e.done:
			case <-ctx.Done():
				// This caller's context ended while waiting: report the
				// run's own verdict, not the owner's. A deadline is this
				// run's timeout; a cancellation (client cancel, drain) is a
				// cancellation and must not masquerade as one.
				sentinel := error(sim.ErrTimeout)
				if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
					sentinel = ctx.Err()
				}
				return nil, true, &sim.Error{Component: "serve", Op: "cache-wait", Err: sentinel}
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
		e = &cacheEntry{done: make(chan struct{})}
		c.evictLocked()
		c.entries[key] = e
		c.mu.Unlock()

		e.res, e.err = c.runFn(ctx, spec, ins)
		c.mu.Lock()
		if transientRunErr(e.err) || (e.err != nil && ctx.Err() != nil) {
			// Don't poison the cache with a host-speed or cancel outcome.
			delete(c.entries, key)
		} else if c.entries[key] == e {
			// The entry is now a completed one and counts against the cap
			// (unless cap-pressure already evicted it while we ran).
			c.completed++
		}
		c.mu.Unlock()
		close(e.done)
		return e.res, false, e.err
	}
}

// transientRunErr reports whether err reflects the run's environment (budget,
// cancellation) rather than a deterministic property of the spec.
func transientRunErr(err error) bool {
	return err != nil && (errors.Is(err, sim.ErrTimeout) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))
}

// evictLocked bounds the cache: once cap *completed* entries accumulate, one
// is dropped (map order — effectively random, which is fine for a safety
// bound). The count deliberately excludes in-flight entries: the cap is a
// completed-entry bound, and counting in-flight simulations against it made
// sustained in-flight pressure evict completed results long before the cache
// was actually full. In-flight entries themselves are never evicted — a
// waiter must always find its owner — and waiters already holding a pointer
// to an evicted completed entry still observe its result through e.done.
func (c *specCache) evictLocked() {
	if c.cap <= 0 || c.completed < c.cap {
		return
	}
	for k, e := range c.entries {
		select {
		case <-e.done:
			delete(c.entries, k)
			c.completed--
			return
		default:
		}
	}
}

// len reports the current entry count (tests).
func (c *specCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
