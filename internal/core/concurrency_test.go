package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"mdacache/internal/isa"
)

// TestConcurrentMachinesDeterministic runs several identical machines in
// parallel goroutines and asserts their Results are deeply equal. Machines
// must share no mutable state — per-CPU token counters, per-queue event
// state, per-memory fault RNGs — so concurrency can only change wall-clock
// time, never the simulation. Under -race this doubles as a proof that no
// hidden package-level state remains (the original package-level
// tokenCounter would have been flagged here).
func TestConcurrentMachinesDeterministic(t *testing.T) {
	for _, d := range []Design{D0Baseline, D1DiffSet, D1SameSet, D2Sparse} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			ops := randomTrace(42, 600, 6, d == D0Baseline)
			const workers = 4
			results := make([]*Results, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					m, err := Build(tinyConfig(d))
					if err != nil {
						t.Error(err)
						return
					}
					res, err := m.Run(isa.NewSliceTrace(ops))
					if err != nil {
						t.Error(err)
						return
					}
					results[w] = res
				}()
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			for w := 1; w < workers; w++ {
				if !reflect.DeepEqual(results[0], results[w]) {
					t.Fatalf("machine %d diverged from machine 0:\n %+v\nvs %+v",
						w, results[0], results[w])
				}
			}
		})
	}
}

// TestMultiCoreMachinesDeterministic is the run-twice bit-identity property
// for multi-core machines: identical Cores=2/4 machines driven by identical
// per-core traces over a *shared* footprint (maximal cross-core contention:
// snoops, set conflicts, order stalls) must produce deeply equal Results —
// the deterministic (cycle, coreID, seq) interleaving rule at work. Under
// -race this also proves the multi-core wiring shares no hidden state
// between machines.
func TestMultiCoreMachinesDeterministic(t *testing.T) {
	for _, d := range []Design{D1DiffSet, D2Sparse} {
		for _, cores := range []int{2, 4} {
			d, cores := d, cores
			t.Run(fmt.Sprintf("%s/cores%d", d, cores), func(t *testing.T) {
				t.Parallel()
				perCore := make([][]isa.Op, cores)
				for c := range perCore {
					// Same 6 tiles on every core: contended on purpose.
					perCore[c] = randomTrace(uint64(50+c), 700, 6, false)
				}
				const workers = 4
				results := make([]*Results, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					w := w
					wg.Add(1)
					go func() {
						defer wg.Done()
						cfg := tinyConfig(d)
						cfg.Cores = cores
						m, err := Build(cfg)
						if err != nil {
							t.Error(err)
							return
						}
						traces := make([]isa.TraceReader, cores)
						for c := range traces {
							traces[c] = isa.NewSliceTrace(perCore[c])
						}
						res, err := m.RunTraces(traces...)
						if err != nil {
							t.Error(err)
							return
						}
						results[w] = res
					}()
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				for w := 1; w < workers; w++ {
					if !reflect.DeepEqual(results[0], results[w]) {
						t.Fatalf("multi-core machine %d diverged from machine 0:\n %+v\nvs %+v",
							w, results[0], results[w])
					}
				}
			})
		}
	}
}

// TestCoresOneMatchesLegacySingleCore pins that an unset core count means
// one core: a machine built with Cores=0 must produce bit-identical Results
// — cycles, per-level stats, and the full metric snapshot — to one built
// with Cores=1, for every design. (The name dates from when Cores=0 had a
// wiring of its own; it is kept so the test's history stays continuous.)
func TestCoresOneMatchesLegacySingleCore(t *testing.T) {
	for _, d := range []Design{D0Baseline, D1DiffSet, D1SameSet, D2Sparse, D2Dense, D3AllTile} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			t.Parallel()
			ops := randomTrace(42, 600, 6, d == D0Baseline)
			run := func(cores int) *Results {
				cfg := tinyConfig(d)
				cfg.Cores = cores
				m, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return mustRun(t, m, isa.NewSliceTrace(ops))
			}
			unset, one := run(0), run(1)
			if !reflect.DeepEqual(unset, one) {
				t.Fatalf("Cores=0 (unset) diverged from Cores=1:\n %+v\nvs %+v", unset, one)
			}
		})
	}
}

// TestConcurrentFaultInjectionDeterministic is the same property with the
// NVM write-fault injector armed: each Memory seeds its own RNG from
// Params.FaultSeed, so concurrent machines draw identical fault patterns
// instead of racing on a shared stream.
func TestConcurrentFaultInjectionDeterministic(t *testing.T) {
	cfg := tinyConfig(D1DiffSet)
	cfg.Mem.WriteFailProb = 0.3
	cfg.Mem.FaultSeed = 12345
	ops := randomTrace(7, 800, 6, false)

	const workers = 4
	results := make([]*Results, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := Build(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := m.Run(isa.NewSliceTrace(ops))
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = res
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if results[0].Mem.WriteRetries == 0 {
		t.Fatal("fault injection never fired; the concurrency claim is vacuous")
	}
	for w := 1; w < workers; w++ {
		if !reflect.DeepEqual(results[0], results[w]) {
			t.Fatalf("machine %d diverged under fault injection (retries %d vs %d)",
				w, results[0].Mem.WriteRetries, results[w].Mem.WriteRetries)
		}
	}
}
