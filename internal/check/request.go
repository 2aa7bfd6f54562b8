package check

import (
	"fmt"

	"mdacache/internal/isa"
	"mdacache/internal/sim"
	"mdacache/internal/workloads"
)

// This file points the conformance harness at the request-driven workload
// family (internal/workloads): Zipf-skewed KV serving and HTAP mixes whose
// streams come from the seeded op generator rather than the harness's own
// pattern generators. The invariants are the same — load-value oracle,
// final-memory image, metric conservation — but the traffic shape is the
// one mdasim actually runs, so a generator bug (bad vector base, reused
// store value, column op on a 1-D layout) fails here before it can corrupt
// an experiment.

// RequestSpec fully determines one request-workload conformance case.
// Everything derives from (Workload, Seed, Cores), so a one-line repro only
// needs those three.
type RequestSpec struct {
	Workload   string
	Seed       uint64
	Cores      int
	Req        workloads.ReqSpec // derived generator spec (Req.Seed == Seed)
	CfgVariant int               // core.SmallConfig variant (0 roomy, 1 tight)
	Faults     bool              // enable transient-fault injection during checking
}

// Repro implements Spec.
func (s RequestSpec) Repro() string {
	return fmt.Sprintf("mdacheck -workload %s -cores %d -seed %#x", s.Workload, s.Cores, s.Seed)
}

func (s RequestSpec) rig() Rig { return Rig{Seed: s.Seed, CfgVariant: s.CfgVariant, Faults: s.Faults} }

func (s RequestSpec) withFaults(on bool) Spec { s.Faults = on; return s }

func (s RequestSpec) title() string { return "request conformance failure" }

func (s RequestSpec) String() string {
	layout := "2d"
	if !s.Req.Logical2D {
		layout = "1d"
	}
	return fmt.Sprintf("workload=%s seed=%#x cores=%d n=%d clients=%d ops=%d zipf=%g rr=%g %s cfg=%d faults=%v",
		s.Workload, s.Seed, s.Cores, s.Req.N, s.Req.Clients, s.Req.Ops,
		s.Req.Zipf, s.Req.ReadRatio, layout, s.CfgVariant, s.Faults)
}

// RequestSpecForSeed derives a full request-workload conformance spec from a
// bare (workload, seed, cores) triple. Same splitmix64 convention as
// SpecForSeed: the corpus `seed = 0..N` covers both table scales, the skew
// and read-ratio grid, both layouts, both config variants and both fault
// settings without further bookkeeping. Tables are a few KB over SmallConfig
// caches, so the streams genuinely contend.
func RequestSpecForSeed(workload string, seed uint64, cores int) RequestSpec {
	if cores < 1 {
		cores = 1
	}
	r := sim.NewRNG(seed ^ 0x7e9b5ec)
	return RequestSpec{
		Workload: workload,
		Seed:     seed,
		Cores:    cores,
		Req: workloads.ReqSpec{
			Workload:  workload,
			N:         16 << r.Intn(2), // 16 or 32: 4–16 KB tables
			Cores:     cores,
			Clients:   cores * (1 + r.Intn(2)),
			Ops:       int64(cores) * int64(32+r.Intn(96)),
			Zipf:      []float64{0, 0.6, 0.99}[r.Intn(3)],
			ReadRatio: []float64{0.5, 0.9}[r.Intn(2)],
			Seed:      seed,
			Logical2D: r.Intn(2) == 0,
		},
		CfgVariant: r.Intn(2),
		Faults:     r.Intn(2) == 0,
	}
}

// GenerateRequest materialises the per-core streams for spec. Conformance
// specs are a few hundred ops, so collecting the streams (normally consumed
// incrementally) is cheap; element c is core c's program.
func GenerateRequest(spec RequestSpec) ([][]isa.Op, error) {
	readers, err := workloads.RequestStreams(spec.Req)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	streams := make([][]isa.Op, len(readers))
	for c, tr := range readers {
		streams[c] = isa.Collect(tr)
	}
	return streams, nil
}

// CheckRequest generates the request streams for spec, checks them against
// every applicable design, and — on failure — shrinks the schedule to a
// locally-minimal failing witness. Returns (nil, nil) when every invariant
// holds; a non-nil error means the spec itself is invalid, not that a check
// failed.
func CheckRequest(spec RequestSpec, opt Options) (*Failure, error) {
	streams, err := GenerateRequest(spec)
	if err != nil {
		return nil, err
	}
	return checkCase(spec, streams, opt), nil
}
