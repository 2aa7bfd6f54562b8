package experiments

import (
	"context"
	"fmt"

	"mdacache/internal/core"
	"mdacache/internal/isa"
	"mdacache/internal/workloads"
)

// runRequestInstrumentedCtx executes a request-driven workload spec: no
// compiler involved — the seeded per-core client streams from
// workloads.RequestStreams feed the machine directly, one stream per core.
// Phase accounting mirrors the kernel path with "workload" (stream
// construction) in place of "compile".
func runRequestInstrumentedCtx(ctx context.Context, spec RunSpec, ins Instrument) (*core.Results, error) {
	return runStreams(ctx, spec, ins, "workload", func(cores int) ([]isa.TraceReader, error) {
		streams, err := workloads.RequestStreams(workloads.ReqSpec{
			Workload:  spec.Workload,
			N:         spec.N,
			Cores:     cores,
			Clients:   spec.Clients,
			Ops:       spec.Ops,
			Zipf:      spec.Zipf,
			ReadRatio: spec.ReadRatio,
			Seed:      spec.WorkloadSeed,
			Logical2D: spec.Design.Logical2D(),
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		return streams, nil
	})
}
