package experiments

import (
	"testing"

	"mdacache/internal/compiler"
	"mdacache/internal/core"
	"mdacache/internal/isa"
	"mdacache/internal/workloads"
)

// TestShardTraceRoundRobin pins the sharding contract: chunk k of the source
// goes to core k mod cores, each shard preserves its chunks' internal order,
// and every source op lands on exactly one shard.
func TestShardTraceRoundRobin(t *testing.T) {
	const n = shardChunkOps*5 + 17 // deliberately not chunk-aligned
	ops := make([]isa.Op, n)
	for i := range ops {
		ops[i] = isa.Op{Addr: uint64(i) * isa.WordSize}
	}
	const cores = 3
	shards := ShardTrace(isa.NewSliceTrace(ops), cores)
	if len(shards) != cores {
		t.Fatalf("got %d shards, want %d", len(shards), cores)
	}
	var got [cores][]isa.Op
	// Drain shards round-robin one op at a time — the same interleaved
	// consumption pattern RunTraces produces — to exercise the demux's
	// buffering, then drain stragglers.
	for remaining := true; remaining; {
		remaining = false
		for c := range shards {
			if op, ok := shards[c].Next(); ok {
				got[c] = append(got[c], op)
				remaining = true
			}
		}
	}
	total := 0
	for c := range got {
		total += len(got[c])
		want := uint64(c * shardChunkOps) // first op of this core's first chunk
		for i, op := range got[c] {
			if op.Addr != want*isa.WordSize {
				t.Fatalf("core %d op %d: addr %#x, want %#x", c, i, op.Addr, want*isa.WordSize)
			}
			want++
			if want%shardChunkOps == 0 { // next chunk for this core
				want += (cores - 1) * shardChunkOps
			}
		}
	}
	if total != n {
		t.Fatalf("shards delivered %d ops, want %d", total, n)
	}
}

// TestShardTraceSingleConsumerDrain checks that one slow shard can drain its
// whole share even if the others were fully consumed first (the demux
// buffers on behalf of lagging cores).
func TestShardTraceSingleConsumerDrain(t *testing.T) {
	const n = shardChunkOps * 4
	ops := make([]isa.Op, n)
	for i := range ops {
		ops[i] = isa.Op{Addr: uint64(i) * isa.WordSize}
	}
	shards := ShardTrace(isa.NewSliceTrace(ops), 2)
	// Exhaust shard 0 entirely before touching shard 1.
	count0 := 0
	for {
		if _, ok := shards[0].Next(); !ok {
			break
		}
		count0++
	}
	count1 := 0
	for {
		if _, ok := shards[1].Next(); !ok {
			break
		}
		count1++
	}
	if count0 != n/2 || count1 != n/2 {
		t.Fatalf("shards delivered %d + %d ops, want %d each", count0, count1, n/2)
	}
}

// opIndex recovers the source position encoded in the test ops' addresses.
func opIndex(op isa.Op) int { return int(op.Addr / isa.WordSize) }

// shardIndex returns the source index of the i-th op of the given shard
// under round-robin chunk assignment.
func shardIndex(i, core, cores int) int {
	chunk := i / shardChunkOps
	return (chunk*cores+core)*shardChunkOps + i%shardChunkOps
}

// TestShardTraceChunkAccounting pins short-final-chunk and empty-trace
// behaviour table-driven: every op lands on the shard its chunk index
// selects, and a zero-op pull at EOF does not advance the round-robin
// cursor (the d.next skew bug).
func TestShardTraceChunkAccounting(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		cores int
	}{
		{"empty", 0, 2},
		{"one-op", 1, 3},
		{"partial-chunk", shardChunkOps - 1, 2},
		{"exact-chunk", shardChunkOps, 2},
		{"chunk-plus-one", shardChunkOps + 1, 3},
		{"exact-rotation", shardChunkOps * 3, 3},
		{"short-final-chunk", shardChunkOps*5 + 17, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ops := make([]isa.Op, tc.n)
			for i := range ops {
				ops[i] = isa.Op{Addr: uint64(i) * isa.WordSize}
			}
			shards := ShardTrace(isa.NewSliceTrace(ops), tc.cores)
			d := shards[0].(*traceShard).d
			total := 0
			for c, s := range shards {
				i := 0
				for {
					op, ok := s.Next()
					if !ok {
						break
					}
					if want := shardIndex(i, c, tc.cores); opIndex(op) != want {
						t.Fatalf("shard %d op %d: got source index %d, want %d", c, i, opIndex(op), want)
					}
					i++
				}
				total += i
			}
			if total != tc.n {
				t.Fatalf("shards delivered %d ops, want %d", total, tc.n)
			}
			// The cursor must equal the number of non-empty chunks mod
			// cores: a zero-op EOF pull consuming a turn would leave it one
			// past that.
			chunks := (tc.n + shardChunkOps - 1) / shardChunkOps
			if want := chunks % tc.cores; d.next != want {
				t.Fatalf("round-robin cursor = %d after EOF, want %d (zero-op pull advanced it)", d.next, want)
			}
		})
	}
}

// closeTrackingTrace is a Closer source that refuses Next after Close —
// modelling a generator-backed stream, where a premature Close truncates
// every op not yet pulled.
type closeTrackingTrace struct {
	isa.SliceTrace
	closed bool
	closes int
}

func (c *closeTrackingTrace) Next() (isa.Op, bool) {
	if c.closed {
		return isa.Op{}, false
	}
	return c.SliceTrace.Next()
}

func (c *closeTrackingTrace) Close() { c.closed = true; c.closes++ }

// TestShardTraceCloseKeepsSiblingsAlive pins the Close fix: closing one
// shard must not release the shared source while siblings still have
// undelivered ops (the old demux closed the source on the first shard's
// Close, silently truncating every other core's stream).
func TestShardTraceCloseKeepsSiblingsAlive(t *testing.T) {
	const n = shardChunkOps * 4
	ops := make([]isa.Op, n)
	for i := range ops {
		ops[i] = isa.Op{Addr: uint64(i) * isa.WordSize}
	}
	src := &closeTrackingTrace{SliceTrace: isa.SliceTrace{Ops: ops}}
	shards := ShardTrace(src, 2)
	// Shard 0 consumes a few ops, then abandons its stream.
	for i := 0; i < 10; i++ {
		if _, ok := shards[0].Next(); !ok {
			t.Fatalf("shard 0 refused op %d", i)
		}
	}
	shards[0].(*traceShard).Close()
	if src.closed {
		t.Fatal("source closed while shard 1 is undrained")
	}
	count1 := 0
	for {
		if _, ok := shards[1].Next(); !ok {
			break
		}
		count1++
	}
	if count1 != n/2 {
		t.Fatalf("shard 1 delivered %d ops after sibling Close, want %d", count1, n/2)
	}
	// All shards now closed or drained: the source must be released.
	shards[1].(*traceShard).Close()
	if !src.closed {
		t.Fatal("source not released after every shard closed or drained")
	}
}

// TestShardTraceCloseIdempotent audits traceShard.Close: closing a shard
// twice (or closing an already-drained shard) must be a no-op the second
// time — no panic, no double release of the source, and no effect on
// siblings.
func TestShardTraceCloseIdempotent(t *testing.T) {
	const n = shardChunkOps * 40
	ops := make([]isa.Op, n)
	for i := range ops {
		ops[i] = isa.Op{Addr: uint64(i) * isa.WordSize}
	}
	src := &closeTrackingTrace{SliceTrace: isa.SliceTrace{Ops: ops}}
	shards := ShardTrace(src, 2)
	fast := shards[0].(*traceShard)
	got := 0
	for ; got < n/4; got++ { // queues part of shard 1's share
		if _, ok := fast.Next(); !ok {
			t.Fatalf("shard 0 refused op %d", got)
		}
	}
	slow := shards[1].(*traceShard)
	slow.Close()
	slow.Close()
	if src.closed {
		t.Fatal("source released while shard 0 still has undelivered ops")
	}
	// Shard 0 drains the remaining source (shard 1's chunks are dropped).
	for {
		op, ok := fast.Next()
		if !ok {
			break
		}
		if want := shardIndex(got, 0, 2); opIndex(op) != want {
			t.Fatalf("shard 0 op %d: got source index %d, want %d", got, opIndex(op), want)
		}
		got++
	}
	if got != n/2 {
		t.Fatalf("shard 0 delivered %d ops after sibling Close, want %d", got, n/2)
	}
	if src.closes != 1 {
		t.Fatalf("source released %d times after drain, want exactly 1", src.closes)
	}
	fast.Close()
	fast.Close()
	if src.closes != 1 {
		t.Fatalf("double Close released the source again: %d closes, want 1", src.closes)
	}
}

// TestShardTraceSingleCoreIsSource pins that one core reads the source
// itself, with no demux in between.
func TestShardTraceSingleCoreIsSource(t *testing.T) {
	src := isa.NewSliceTrace(nil)
	shards := ShardTrace(src, 1)
	if len(shards) != 1 || shards[0] != isa.TraceReader(src) {
		t.Fatalf("ShardTrace(src, 1) = %v, want [src]", shards)
	}
}

// TestShardTraceMatchesPresplit pins delivery independence: a 4-core run
// through the streaming demux must equal, bit for bit, the same machine fed
// four slices of the compiled trace pre-split by chunk index. A shard never
// refuses an op its source still holds, so when each core gets its next op
// is decided by the simulated machine alone, not by host-side buffering.
func TestShardTraceMatchesPresplit(t *testing.T) {
	spec := RunSpec{Bench: "ssyr2k", N: 32, Design: core.D1DiffSet, LLCBytes: core.MB, Scale: 16, Cores: 4}
	got, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}

	kern, err := workloads.Build(spec.Bench, spec.N)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(kern, compiler.Target{Logical2D: spec.Design.Logical2D()})
	if err != nil {
		t.Fatal(err)
	}
	split := make([][]isa.Op, spec.Cores)
	for i, op := range isa.Collect(prog.Trace()) {
		c := i / shardChunkOps % spec.Cores
		split[c] = append(split[c], op)
	}
	traces := make([]isa.TraceReader, spec.Cores)
	for c := range traces {
		traces[c] = isa.NewSliceTrace(split[c])
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.RunTraces(traces...)
	if err != nil {
		t.Fatal(err)
	}

	key := SpecKey(spec)
	if err := DiffRunResults(
		[]SweepRun{{Spec: spec, Key: key, Results: got}},
		[]SweepRun{{Spec: spec, Key: key, Results: want}},
	); err != nil {
		t.Fatalf("demuxed run differs from the pre-split run: %v", err)
	}
}
