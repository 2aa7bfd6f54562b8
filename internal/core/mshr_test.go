package core

import (
	"math/rand"
	"testing"

	"mdacache/internal/isa"
)

func lineAt(i int) isa.LineID {
	return isa.LineID{Base: uint64(i) * isa.LineSize, Orient: isa.Row}
}

// TestMSHRWaiterRingFIFO forces the waiter ring to grow past its initial
// capacity and checks that stalled accesses are replayed strictly in stall
// order.
func TestMSHRWaiterRingFIFO(t *testing.T) {
	f := newMSHRFile(1, nil)
	e := f.allocate(lineAt(0), false)
	const n = 20 // > initial ring capacity (8), forces two growths
	for i := 1; i <= n; i++ {
		f.stall(lineAt(i), fillTarget{kind: tWord, off: uint8(i % 8)})
	}
	for i := 1; i <= n; i++ {
		w, ok := f.complete(e)
		f.release(e)
		if !ok {
			t.Fatalf("waiter %d missing", i)
		}
		if w.line != lineAt(i) {
			t.Fatalf("waiter %d out of order: got %v, want %v", i, w.line, lineAt(i))
		}
		if w.target.off != uint8(i%8) {
			t.Fatalf("waiter %d target corrupted: off = %d", i, w.target.off)
		}
		e = f.allocate(w.line, false)
	}
	if _, ok := f.complete(e); ok {
		t.Fatal("ring should be empty after draining every waiter")
	}
	f.release(e)
}

// TestMSHRWaiterRingBoundedCapacity is the regression test for the waiter
// leak: the old implementation popped with `waiters = waiters[1:]`, which
// both pinned every popped element's backing array and reallocated under
// sustained cycling. Steady stall/complete cycling must leave the ring at
// its minimal capacity.
func TestMSHRWaiterRingBoundedCapacity(t *testing.T) {
	f := newMSHRFile(1, nil)
	e := f.allocate(lineAt(0), false)
	for i := 0; i < 10000; i++ {
		f.stall(lineAt(1), fillTarget{done1: func(uint64, uint64) {}})
		w, ok := f.complete(e)
		if !ok {
			t.Fatal("expected a stalled waiter")
		}
		f.release(e)
		e = f.allocate(w.line, false)
	}
	if c := f.waiterCap(); c > 8 {
		t.Fatalf("waiter ring grew to capacity %d under steady stall/complete cycling", c)
	}
	f.complete(e)
	f.release(e)
	// Every popped slot must have been zeroed so the ring never pins dead
	// completion callbacks for the GC.
	for i := range f.waiters {
		if f.waiters[i].target.done1 != nil {
			t.Fatalf("popped waiter slot %d still pins its callback", i)
		}
	}
}

// TestMSHRSwapRemoveKeepsLookupsExact exercises entry removal from the middle
// of the file: deletion must not break exact-key lookups of the survivors.
func TestMSHRSwapRemoveKeepsLookupsExact(t *testing.T) {
	f := newMSHRFile(4, nil)
	var ents [4]*mshrEntry
	for i := range ents {
		ents[i] = f.allocate(lineAt(i), false)
	}
	if !f.full() {
		t.Fatal("file should be full")
	}
	f.complete(ents[1])
	f.release(ents[1])
	if f.lookup(lineAt(1)) != nil {
		t.Fatal("completed entry still visible")
	}
	for _, i := range []int{0, 2, 3} {
		if f.lookup(lineAt(i)) != ents[i] {
			t.Fatalf("entry %d lost after swap-remove", i)
		}
	}
	if f.inFlight() != 3 {
		t.Fatalf("inFlight = %d, want 3", f.inFlight())
	}
}

// collidingLines returns n distinct lines (row and column) whose home slot
// in f is home, so they share one probe run.
func collidingLines(f *mshrFile, home uint64, n int) []isa.LineID {
	var out []isa.LineID
	seen := map[isa.LineID]bool{}
	for i := uint64(0); len(out) < n; i++ {
		for _, o := range []isa.Orient{isa.Row, isa.Col} {
			l := isa.LineOf(i*isa.WordSize, o)
			if len(out) < n && !seen[l] && f.home(lineKey(l)) == home {
				seen[l] = true
				out = append(out, l)
			}
		}
	}
	return out
}

// TestMSHRDifferentialAgainstMap drives the table through seeded random
// allocate/lookup/complete/stall sequences and checks every step against a
// map-and-slice model. The line pool piles keys onto the last and first
// slots, so probe runs collide and wrap around the end of the table, and
// deletes backward-shift across the wrap.
func TestMSHRDifferentialAgainstMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		const capacity = 8
		f := newMSHRFile(capacity, nil)
		var pool []isa.LineID
		for _, h := range []uint64{f.mask - 1, f.mask, 0, 1} {
			pool = append(pool, collidingLines(f, h, 4)...)
		}
		for i := 0; i < 8; i++ {
			pool = append(pool, lineAt(1000+i))
		}
		rng := rand.New(rand.NewSource(seed))
		inFlight := map[isa.LineID]*mshrEntry{}
		var order, waiting []isa.LineID // in-flight lines in allocation order; stalled lines
		for step := 0; step < 4000; step++ {
			l := pool[rng.Intn(len(pool))]
			switch rng.Intn(4) {
			case 0: // allocate, or stall when full
				if inFlight[l] != nil {
					break
				}
				if f.full() != (len(inFlight) == capacity) {
					t.Fatalf("seed %d step %d: full() = %v with %d in flight", seed, step, f.full(), len(inFlight))
				}
				if f.full() {
					f.stall(l, fillTarget{})
					waiting = append(waiting, l)
				} else {
					inFlight[l] = f.allocate(l, false)
					order = append(order, l)
				}
			case 1, 2: // complete an in-flight entry
				if len(order) == 0 {
					break
				}
				k := rng.Intn(len(order))
				e := inFlight[order[k]]
				order = append(order[:k], order[k+1:]...)
				delete(inFlight, e.line)
				w, ok := f.complete(e)
				f.release(e)
				if ok != (len(waiting) > 0) {
					t.Fatalf("seed %d step %d: complete reported waiter %v, model has %d", seed, step, ok, len(waiting))
				}
				if ok {
					if w.line != waiting[0] {
						t.Fatalf("seed %d step %d: waiter %v, want %v", seed, step, w.line, waiting[0])
					}
					waiting = waiting[1:]
				}
			case 3: // lookup only
			}
			if f.inFlight() != len(inFlight) {
				t.Fatalf("seed %d step %d: inFlight %d, model %d", seed, step, f.inFlight(), len(inFlight))
			}
			for _, p := range pool {
				if got, want := f.lookup(p), inFlight[p]; got != want {
					t.Fatalf("seed %d step %d: lookup(%v) = %p, want %p", seed, step, p, got, want)
				}
			}
			for _, e := range inFlight {
				if f.table[e.slot].e != e {
					t.Fatalf("seed %d step %d: entry %v not at its recorded slot %d", seed, step, e.line, e.slot)
				}
			}
		}
	}
}

// TestMSHRSteadyStateAllocFree pins that a warm file allocates nothing for
// a full allocate/coalesce/stall/complete/release cycle.
func TestMSHRSteadyStateAllocFree(t *testing.T) {
	f := newMSHRFile(4, nil)
	cycle := func() {
		var ents [4]*mshrEntry
		for i := range ents {
			ents[i] = f.allocate(lineAt(i), false)
		}
		if f.lookup(lineAt(2)) != ents[2] {
			t.Fatal("lookup missed an in-flight line")
		}
		f.stall(lineAt(9), fillTarget{})
		for _, e := range ents {
			f.complete(e)
			f.release(e)
		}
	}
	cycle() // warm the entry pool and the waiter ring
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Fatalf("steady-state MSHR cycle allocates %v times, want 0", n)
	}
}
