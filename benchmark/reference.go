package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"reflect"

	"mdacache/internal/core"
)

// levelRef is the per-level part of a simulated result the reference pins.
type levelRef struct {
	Name               string
	Accesses           uint64
	Hits               uint64
	Misses             uint64
	FillsIssued        uint64
	Writebacks         uint64
	MSHRCoalesced      uint64
	MSHRStalls         uint64
	ExtraTagProbes     uint64
	DuplicateEvictions uint64
	SetConflicts       uint64
	SetArbDelay        uint64
}

// resultRef is the simulated outcome of one spec: every statistic of the
// modelled machine the benchmark reports. Host-side work counts (sim.events)
// are deliberately absent — an engine optimisation may change them without
// changing what is simulated.
type resultRef struct {
	Cycles, Ops, Loads, Stores, OrderStalls uint64
	Levels                                  []levelRef
	MemReads, MemWrites, MemBufferHits      [2]uint64 // [row, col]
	MemReadLatency                          uint64
	SnoopFlushes, SnoopInvalidates          uint64
}

func refOf(r *core.Results) resultRef {
	out := resultRef{
		Cycles: r.Cycles, Ops: r.Ops, Loads: r.Loads, Stores: r.Stores, OrderStalls: r.OrderStalls,
		MemReads: r.Mem.Reads, MemWrites: r.Mem.Writes, MemBufferHits: r.Mem.BufferHits,
		MemReadLatency: r.Mem.ReadLatency,
	}
	out.SnoopFlushes, _ = r.Metrics.Counter("coherence.snoop_flushes")
	out.SnoopInvalidates, _ = r.Metrics.Counter("coherence.snoop_invalidates")
	for _, l := range r.Levels {
		out.Levels = append(out.Levels, levelRef{
			Name: l.Name, Accesses: l.Accesses, Hits: l.Hits, Misses: l.Misses,
			FillsIssued: l.FillsIssued, Writebacks: l.Writebacks,
			MSHRCoalesced: l.MSHRCoalesced, MSHRStalls: l.MSHRStalls,
			ExtraTagProbes: l.ExtraTagProbes, DuplicateEvictions: l.DuplicateEvictions,
			SetConflicts: l.SetConflicts, SetArbDelay: l.SetArbDelay,
		})
	}
	return out
}

// referenceJSON maps a spec's reference key to its recorded outcome. It was
// recorded with experiments.Run by `run.sh --record-reference`; regenerate it
// only when a change is meant to alter simulated behaviour.
//
//go:embed reference.json
var referenceJSON []byte

type references map[string]resultRef

func loadReferences() (references, error) {
	var refs references
	if err := json.Unmarshal(referenceJSON, &refs); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return refs, nil
}

// check compares a run's results with the recorded reference for key. A
// missing entry is an error: an unchecked output is not a correct one.
func (refs references) check(key string, r *core.Results) error {
	want, ok := refs[key]
	if !ok {
		return fmt.Errorf("%s: no recorded reference", key)
	}
	if got := refOf(r); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s: simulated results differ from the reference: %s", key, firstDiff(got, want))
	}
	return nil
}

// firstDiff names the first differing field of two resultRefs.
func firstDiff(got, want resultRef) string {
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			return fmt.Sprintf("%s: got %v, want %v", g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
	return "no field differs"
}

func writeReferences(path string, refs references) error {
	data, err := json.MarshalIndent(refs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
