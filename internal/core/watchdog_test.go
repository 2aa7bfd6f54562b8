package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
)

// stuckLevel is a Level that accepts accesses and never completes them — a
// synthetic lost-completion bug that must trip the deadlock watchdog.
type stuckLevel struct {
	stats LevelStats
}

func (s *stuckLevel) CPUAccess(uint64, isa.Op, func(uint64, uint64))    {}
func (s *stuckLevel) Fill(uint64, isa.LineID, func(uint64, *[8]uint64)) {}
func (s *stuckLevel) Writeback(uint64, isa.LineID, uint8, [8]uint64)    {}
func (s *stuckLevel) Peek(isa.LineID) [isa.WordsPerLine]uint64          { return [8]uint64{} }
func (s *stuckLevel) Occupancy() (int, int)                             { return 0, 0 }
func (s *stuckLevel) Stats() *LevelStats                                { return &s.stats }
func (s *stuckLevel) Drain(uint64)                                      {}
func (s *stuckLevel) MSHRInFlight() int                                 { return 3 }

// stuckMachine wires a real machine, then points its CPU at a level that
// drops every access on the floor.
func stuckMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := Build(tinyConfig(D1DiffSet))
	if err != nil {
		t.Fatal(err)
	}
	lvl := &stuckLevel{}
	lvl.stats.Name = "L1"
	m.Levels[0] = lvl
	m.CPU.l1 = lvl
	return m
}

func TestDeadlockReturnsTypedError(t *testing.T) {
	m := stuckMachine(t)
	_, err := m.RunTraces(isa.NewSliceTrace([]isa.Op{{Addr: 0}}))
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("err = %v, want sim.ErrDeadlock", err)
	}
	var serr *sim.Error
	if !errors.As(err, &serr) {
		t.Fatalf("err %T is not *sim.Error", err)
	}
	if serr.Detail == "" {
		t.Fatal("deadlock error carries no diagnostic dump")
	}
	// The dump names the outstanding work: the CPU's in-flight op and the
	// stub's claimed MSHR entries.
	for _, want := range []string{"cpu-inflight=1", "L1-mshr=3", "mem-readq=", "pending-events="} {
		if !strings.Contains(serr.Detail, want) {
			t.Errorf("diagnostic %q missing %q", serr.Detail, want)
		}
	}
}

func TestCycleLimitReturnsTypedError(t *testing.T) {
	cfg := tinyConfig(D1DiffSet)
	cfg.MaxCycles = 10 // far below any real fill latency
	m, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunTraces(isa.NewSliceTrace([]isa.Op{{Addr: 0}}))
	if !errors.Is(err, sim.ErrCycleLimit) {
		t.Fatalf("err = %v, want sim.ErrCycleLimit", err)
	}
}

func TestContextCancelReturnsTimeout(t *testing.T) {
	m, err := Build(tinyConfig(D1DiffSet))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the first watchdog check must abort
	_, err = m.RunTracesCtx(ctx, isa.NewSliceTrace([]isa.Op{{Addr: 0}}))
	if !errors.Is(err, sim.ErrTimeout) {
		t.Fatalf("err = %v, want sim.ErrTimeout", err)
	}
}

func TestColumnOn1DHierarchyReturnsInvalidAccess(t *testing.T) {
	m, err := Build(tinyConfig(D0Baseline))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.RunTraces(isa.NewSliceTrace([]isa.Op{
		{Addr: 0, Orient: isa.Col},
	}))
	if !errors.Is(err, sim.ErrInvalidAccess) {
		t.Fatalf("err = %v, want sim.ErrInvalidAccess", err)
	}
	var serr *sim.Error
	if !errors.As(err, &serr) || serr.Component == "" {
		t.Fatalf("err %v does not carry component context", err)
	}
}

func TestHealthyRunUnaffectedByWatchdog(t *testing.T) {
	// A generous budget must not perturb a normal run: same cycle count
	// with and without limits.
	run := func(maxCycles uint64) uint64 {
		cfg := tinyConfig(D1DiffSet)
		cfg.MaxCycles = maxCycles
		m, err := Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.RunTraces(isa.NewSliceTrace(randomTrace(11, 800, 8, false)))
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles
	}
	if a, b := run(0), run(1<<40); a != b {
		t.Fatalf("watchdog perturbed timing: %d vs %d cycles", a, b)
	}
}
