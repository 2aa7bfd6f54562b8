package sim

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	var q EventQueue
	var got []uint64
	for _, at := range []uint64{30, 10, 20, 10, 5} {
		at := at
		q.Schedule(at, func() { got = append(got, at) })
	}
	q.Run(0)
	want := []uint64{5, 10, 10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestSameCycleFIFO(t *testing.T) {
	var q EventQueue
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(100, func() { got = append(got, i) })
	}
	q.Run(0)
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-cycle events not FIFO: %v", got)
		}
	}
}

func TestScheduleInPastClampsToNow(t *testing.T) {
	var q EventQueue
	ran := false
	q.Schedule(50, func() {
		q.Schedule(10, func() { // in the past
			if q.Now() != 50 {
				t.Errorf("past event ran at %d, want 50", q.Now())
			}
			ran = true
		})
	})
	q.Run(0)
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestAfterAndNow(t *testing.T) {
	var q EventQueue
	q.Schedule(7, func() {
		q.After(3, func() {
			if q.Now() != 10 {
				t.Errorf("After landed at %d", q.Now())
			}
		})
	})
	q.Run(0)
	if q.Now() != 10 {
		t.Fatalf("final Now = %d", q.Now())
	}
}

func TestRunCycleLimit(t *testing.T) {
	var q EventQueue
	count := 0
	for i := uint64(1); i <= 10; i++ {
		q.Schedule(i*10, func() { count++ })
	}
	if n := q.Run(50); n != 5 || count != 5 {
		t.Fatalf("limited run executed %d/%d", n, count)
	}
	if q.Pending() != 5 {
		t.Fatalf("pending = %d", q.Pending())
	}
	q.Run(0)
	if count != 10 {
		t.Fatalf("drain executed %d", count)
	}
}

func TestStepEmptyQueue(t *testing.T) {
	var q EventQueue
	if q.Step() {
		t.Fatal("Step on empty queue must return false")
	}
}

func TestResourceSerializes(t *testing.T) {
	var r Resource
	if s := r.Acquire(10, 5); s != 10 {
		t.Fatalf("first acquire at %d", s)
	}
	if s := r.Acquire(10, 5); s != 15 {
		t.Fatalf("second acquire at %d", s)
	}
	if s := r.Acquire(100, 5); s != 100 {
		t.Fatalf("idle acquire at %d", s)
	}
	if r.FreeAt() != 105 {
		t.Fatalf("FreeAt = %d", r.FreeAt())
	}
}

func TestResourceMonotoneProperty(t *testing.T) {
	f := func(reqs []uint16) bool {
		var r Resource
		at := uint64(0)
		prevEnd := uint64(0)
		for _, raw := range reqs {
			dur := uint64(raw%10) + 1
			start := r.Acquire(at, dur)
			if start < prevEnd { // reservations must never overlap
				return false
			}
			prevEnd = start + dur
			at += uint64(raw % 7)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same sequence")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

// TestFarFutureDispatchTime is the regression pin for a wheel-horizon
// aliasing bug: an event scheduled more than wheelSize cycles ahead of an
// otherwise-empty queue lands in the overflow heap; when next() migrated it
// into the wheel without first advancing now, scanWheel aliased its bucket
// to `at - wheelSize` and dispatched it a full lap early. Every event must
// observe Now() == its scheduled cycle.
func TestFarFutureDispatchTime(t *testing.T) {
	for _, delta := range []uint64{wheelSize, wheelSize + 1, wheelSize + 17, 3*wheelSize + 5} {
		q := &EventQueue{}
		var got []uint64
		at := uint64(100) + delta
		q.Schedule(100, func() {
			got = append(got, q.Now())
			// Chain a second far hop from inside an event: the wheel is
			// empty again once this handler returns.
			q.Schedule(q.Now()+delta, func() { got = append(got, q.Now()) })
		})
		q.Run(0)
		want := []uint64{100, 100 + delta}
		if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
			t.Fatalf("delta %d: events ran at %v, want %v (far event scheduled for %d)", delta, got, want, at)
		}
	}
}

// TestFarFutureWindowedDispatch repeats the horizon pin under a cycle
// limit: a limit ending exactly at the far event's cycle must run it; a
// limit ending one cycle short must not.
func TestFarFutureWindowedDispatch(t *testing.T) {
	q := &EventQueue{}
	at := uint64(wheelSize + 50)
	ran := false
	q.Schedule(at, func() { ran = true })
	if n := q.Run(at - 1); n != 0 || ran {
		t.Fatalf("Run(at-1) ran the far event (n=%d ran=%v)", n, ran)
	}
	if n := q.RunBounded(at, 0); n != 1 || !ran {
		t.Fatalf("RunBounded(at, 0) missed the far event (n=%d ran=%v)", n, ran)
	}
	if q.Now() != at {
		t.Fatalf("Now() = %d after far dispatch, want %d", q.Now(), at)
	}
}

// TestBatchedDispatchOrder floods single cycles with events that reschedule
// into the same and nearby cycles, and checks Run executes the exact order
// Step produces while it drains a crowded cycle.
func TestBatchedDispatchOrder(t *testing.T) {
	build := func() (*EventQueue, *[]int) {
		q := &EventQueue{}
		order := &[]int{}
		id := 0
		var add func(at uint64, fanout int)
		add = func(at uint64, fanout int) {
			me := id
			id++
			q.Schedule(at, func() {
				*order = append(*order, me)
				for i := 0; i < fanout; i++ {
					// Same-cycle, next-cycle, and horizon-crossing reschedules.
					switch i % 3 {
					case 0:
						add(q.Now(), 0)
					case 1:
						add(q.Now()+1, 0)
					default:
						add(q.Now()+wheelSize+3, 0)
					}
				}
			})
		}
		for c := uint64(0); c < 4; c++ {
			for i := 0; i < 5; i++ {
				add(c, i%4)
			}
		}
		return q, order
	}

	qa, oa := build()
	for qa.Step() {
	}
	qb, ob := build()
	qb.Run(0)
	if !reflect.DeepEqual(*oa, *ob) {
		t.Fatalf("Run order diverges from Step order:\nstep: %v\nrun:  %v", *oa, *ob)
	}
	if len(*oa) == 0 {
		t.Fatal("no events ran")
	}
}

// TestRunBoundedEventBudgetWithBatch checks maxEvents is honored partway
// through one cycle's events, and that the next call resumes there.
func TestRunBoundedEventBudgetWithBatch(t *testing.T) {
	var q EventQueue
	n := 0
	for i := 0; i < 10; i++ {
		q.Schedule(3, func() { n++ })
	}
	if got := q.RunBounded(0, 4); got != 4 || n != 4 {
		t.Fatalf("RunBounded(0,4) executed %d (n=%d), want 4", got, n)
	}
	if got := q.RunBounded(0, 0); got != 6 || n != 10 {
		t.Fatalf("remainder executed %d (n=%d), want 6, 10", got, n)
	}
}
