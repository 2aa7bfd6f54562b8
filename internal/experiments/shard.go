package experiments

import "mdacache/internal/isa"

// shardChunkOps is the round-robin granularity of trace sharding: each core
// receives this many consecutive ops before the next core takes over. Chunks
// keep each core's stride patterns intact (prefetchers still train) while
// spreading the program across the cores.
const shardChunkOps = 64

// ShardTrace splits one trace into cores round-robin chunk streams for a
// multi-core machine: ops [0,chunk) go to core 0, [chunk,2·chunk) to core 1,
// and so on, wrapping. The split is a streaming demultiplexer: the source is
// pulled lazily as cores consume their shards, so compiled traces never need
// to be materialised. A shard whose queue is empty pulls whole chunks until
// one of its own arrives, queueing the chunks meant for its siblings.
// Buffering is therefore bounded by how far the cores' consumption
// diverges, and no shard ever refuses an op the source still holds: a core
// never waits on another core's buffer, so the simulated timing depends on
// the modelled machine alone. Each core sees exactly the ops it would get
// from a pre-split of the whole trace by chunk index.
//
// Sharding preserves each core's chunk order but not cross-core program
// order; it is the standard throughput approximation for driving shared
// hierarchies from a single-program trace. ShardTrace(src, 1) returns src
// itself, so one core pays no demux cost.
func ShardTrace(src isa.TraceReader, cores int) []isa.TraceReader {
	if cores == 1 {
		return []isa.TraceReader{src}
	}
	d := &traceDemux{
		src:    src,
		bufs:   make([]opQueue, cores),
		closed: make([]bool, cores),
	}
	out := make([]isa.TraceReader, cores)
	for c := range out {
		out[c] = &traceShard{d: d, core: c}
	}
	return out
}

// traceDemux is the shared state behind one ShardTrace call. The simulation
// event loop is single-threaded, so no locking is needed.
type traceDemux struct {
	src       isa.TraceReader
	bufs      []opQueue
	next      int // core that receives the next chunk pulled from src
	done      bool
	closed    []bool // shards whose Close has been called
	srcClosed bool
}

// pull moves one chunk from the source into the next core's buffer. The
// round-robin cursor advances only when the chunk was non-empty: a zero-op
// pull (source already exhausted) must not consume a core's turn, or the
// final partial chunk would be mis-assigned. Chunks destined for a closed
// shard are consumed from the source (its turn in the rotation remains) but
// dropped.
func (d *traceDemux) pull() {
	delivered := 0
	for i := 0; i < shardChunkOps; i++ {
		op, ok := d.src.Next()
		if !ok {
			d.done = true
			break
		}
		if !d.closed[d.next] {
			d.bufs[d.next].push(op)
		}
		delivered++
	}
	if delivered > 0 {
		d.next = (d.next + 1) % len(d.bufs)
	}
	if d.done {
		d.maybeReleaseSrc()
	}
}

// maybeReleaseSrc closes the shared source once no shard can need it again:
// every shard is either closed or (the source being exhausted) fully
// drained. Closing on the first shard's Close would truncate siblings that
// still have undelivered ops in the source.
func (d *traceDemux) maybeReleaseSrc() {
	if d.srcClosed {
		return
	}
	for c := range d.bufs {
		if d.closed[c] {
			continue
		}
		if !d.done || d.bufs[c].len() > 0 {
			return
		}
	}
	d.srcClosed = true
	if c, ok := d.src.(isa.Closer); ok {
		c.Close()
	}
}

// traceShard is one core's view of the demultiplexed trace.
type traceShard struct {
	d    *traceDemux
	core int
}

// Next implements isa.TraceReader. A false return is always the end of this
// shard's stream.
func (s *traceShard) Next() (isa.Op, bool) {
	d := s.d
	q := &d.bufs[s.core]
	for q.len() == 0 {
		if d.done {
			d.maybeReleaseSrc()
			return isa.Op{}, false
		}
		d.pull()
	}
	op := q.pop()
	if d.done && q.len() == 0 {
		d.maybeReleaseSrc()
	}
	return op, true
}

// Close implements isa.Closer. Closing one shard abandons only that shard's
// stream: its buffered ops are discarded and future chunks for it are
// dropped, but the shared source stays open until every sibling is closed
// or drained.
func (s *traceShard) Close() {
	d := s.d
	if d.closed[s.core] {
		return
	}
	d.closed[s.core] = true
	d.bufs[s.core] = opQueue{}
	d.maybeReleaseSrc()
}

// opQueue is a FIFO of ops with amortised O(1) push/pop; the head space is
// recycled once it dominates the backing array.
type opQueue struct {
	ops  []isa.Op
	head int
}

func (q *opQueue) push(op isa.Op) { q.ops = append(q.ops, op) }

func (q *opQueue) len() int { return len(q.ops) - q.head }

func (q *opQueue) pop() isa.Op {
	op := q.ops[q.head]
	q.head++
	if q.head > 1024 && q.head*2 > len(q.ops) {
		n := copy(q.ops, q.ops[q.head:])
		q.ops = q.ops[:n]
		q.head = 0
	}
	return op
}
