package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/isa"
	"mdacache/internal/obs"
	"mdacache/internal/stats"
	"mdacache/internal/workloads"
)

// Instrument carries the optional observability hooks for one run. The zero
// value is fully off: no tracing, no profiling, and no cost beyond a nil
// check per event site.
type Instrument struct {
	// Tracer receives the run's simulation events (nil = tracing off). The
	// tracer is attached to the machine via core.Config.Tracer; it never
	// becomes part of the RunSpec, so checkpoint keys and determinism are
	// unaffected.
	Tracer *obs.Tracer

	// Profile, when non-nil, accumulates a wall/sim-time breakdown of the
	// run's phases (compile, build, simulate). Profiles measure wall-clock
	// time and are therefore non-deterministic; they are deliberately kept
	// out of core.Results so determinism comparisons never see them.
	Profile *obs.RunProfile
}

// RunWith executes the spec under ctx with observability hooks. Cancelling
// ctx aborts the simulation with sim.ErrTimeout. A panic in compilation or
// simulation is recovered into an error, so one broken design point cannot
// abort a sweep, and the spec's Timeout (wall clock) and MaxCycles
// (simulated clock) budgets are both enforced. For a benchmark spec the
// kernel build and tiling are charged to the "workload" phase of
// ins.Profile; RunKernelWith does the rest.
func RunWith(ctx context.Context, spec RunSpec, ins Instrument) (*core.Results, error) {
	if spec.Workload != "" {
		return runRequestInstrumentedCtx(ctx, spec, ins)
	}
	t0 := time.Now()
	kern, err := workloads.Build(spec.Bench, spec.N)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	if spec.TileSize > 0 {
		sizes := map[string]int{}
		for _, idx := range []string{"i", "j", "k"} {
			sizes[idx] = spec.TileSize
		}
		compiler.TileKernel(kern, sizes)
	}
	ins.Profile.Add(obs.ProfilePhase{Name: "workload", Wall: time.Since(t0)})
	return RunKernelWith(ctx, kern, spec, ins)
}

// RunKernelWith compiles an arbitrary kernel for the spec's design point and
// runs it as RunWith does: the entry point for ablations that rewrite the
// benchmark (loop interchange, custom schedules). The kernel is mutated by
// compilation; build a fresh one per call. Phase accounting: "compile"
// covers trace compilation, "build" machine construction, "simulate" the
// event loop (with simulated cycles and executed event counts attached).
func RunKernelWith(ctx context.Context, kern *compiler.Kernel, spec RunSpec, ins Instrument) (*core.Results, error) {
	return runStreams(ctx, spec, ins, "compile", func(cores int) ([]isa.TraceReader, error) {
		prog, err := compiler.Compile(kern, compiler.Target{
			Logical2D: spec.Design.Logical2D(),
			Layout:    spec.LayoutOverride,
		})
		if err != nil {
			return nil, err
		}
		return ShardTrace(prog.Trace(), cores), nil
	})
}

// runStreams is the run step every spec takes, compiled kernel or request
// workload. It recovers a panic into an error, applies the spec's Config
// and ins.Tracer, charges feed (which makes one stream per core) to the
// given phase, then builds the machine ("build") and runs the streams on it
// under the spec's Timeout ("simulate"). The streams are closed on every
// return path, so a failed Build leaves no generator goroutine behind.
func runStreams(ctx context.Context, spec RunSpec, ins Instrument, phase string, feed func(cores int) ([]isa.TraceReader, error)) (res *core.Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = fmt.Errorf("experiments: %v panicked: %v\n%s", spec, r, debug.Stack())
		}
	}()
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	cfg.Tracer = ins.Tracer

	t0 := time.Now()
	streams, err := feed(max(cfg.Cores, 1))
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, s := range streams {
			if c, ok := s.(isa.Closer); ok {
				c.Close()
			}
		}
	}()
	ins.Profile.Add(obs.ProfilePhase{Name: phase, Wall: time.Since(t0)})

	t0 = time.Now()
	m, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	ins.Profile.Add(obs.ProfilePhase{Name: "build", Wall: time.Since(t0)})

	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}
	t0 = time.Now()
	res, err = m.RunTracesCtx(ctx, streams...)
	if err != nil {
		return nil, err
	}
	events, _ := res.Metrics.Counter("sim.events")
	ins.Profile.Add(obs.ProfilePhase{
		Name:   "simulate",
		Wall:   time.Since(t0),
		Cycles: res.Cycles,
		Events: events,
	})
	return res, nil
}

// ProfileTable renders run profiles as a table: one row per phase plus a
// total row per run.
func ProfileTable(profiles []*obs.RunProfile) *stats.Table {
	t := stats.NewTable("Run profiles", "run", "phase", "wall", "sim-cycles", "events")
	for _, p := range profiles {
		if p == nil {
			continue
		}
		for _, ph := range p.Phases {
			cyc, ev := interface{}("-"), interface{}("-")
			if ph.Cycles > 0 {
				cyc = ph.Cycles
			}
			if ph.Events > 0 {
				ev = ph.Events
			}
			t.AddRow(p.Name, ph.Name, ph.Wall.Round(time.Microsecond).String(), cyc, ev)
		}
		t.AddRow(p.Name, "total", p.Total().Round(time.Microsecond).String(), "", "")
	}
	return t
}
