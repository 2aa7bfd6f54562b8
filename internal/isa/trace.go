package isa

// TraceReader is a pull-based stream of memory operations. Implementations
// include in-memory slices (tests) and generator-backed streams (workloads),
// which produce ops lazily so that paper-scale traces (tens of millions of
// ops) never need to be materialised.
type TraceReader interface {
	// Next returns the next op. ok is false when the trace is exhausted.
	Next() (op Op, ok bool)
}

// Closer is implemented by traces that own background resources (the
// generator goroutine behind streamed traces). Runners should close traces
// they abandon before exhaustion.
type Closer interface {
	Close()
}

// Blocker is implemented by no trace in this module: a false Next always
// means the trace is exhausted. It stays only because the repository
// benchmark (benchmark/layers.go) type-asserts it; delete it once that code
// no longer does.
type Blocker interface {
	Blocked() bool
}

// SliceTrace adapts a slice of ops to TraceReader.
type SliceTrace struct {
	Ops []Op
	pos int
}

// NewSliceTrace returns a TraceReader over ops.
func NewSliceTrace(ops []Op) *SliceTrace { return &SliceTrace{Ops: ops} }

// Next implements TraceReader.
func (t *SliceTrace) Next() (Op, bool) {
	if t.pos >= len(t.Ops) {
		return Op{}, false
	}
	op := t.Ops[t.pos]
	t.pos++
	return op, true
}

// Reset rewinds the trace to its first op.
func (t *SliceTrace) Reset() { t.pos = 0 }

const streamChunk = 4096

// StreamTrace is a TraceReader fed by a generator goroutine in chunks. It
// decouples arbitrary recursive generators (loop-nest walkers) from the
// pull-based consumer without per-op channel overhead. Consumed chunks are
// recycled back to the generator through a free list, so steady-state
// streaming (generator and consumer both warm) allocates nothing per op —
// memory use is bounded by the channel depth regardless of trace length.
type StreamTrace struct {
	ch   chan []Op
	free chan []Op
	stop chan struct{}
	cur  []Op
	pos  int
	done bool
}

// Stream runs gen in a goroutine. gen receives an emit function and must
// return when emit reports false (consumer stopped early).
func Stream(gen func(emit func(Op) bool)) *StreamTrace {
	t := &StreamTrace{
		ch: make(chan []Op, 4),
		// One slot beyond the in-flight maximum (4 queued + 1 being filled
		// + 1 being consumed) so returning a chunk never blocks.
		free: make(chan []Op, 6),
		stop: make(chan struct{}),
	}
	go func() {
		defer close(t.ch)
		buf := make([]Op, 0, streamChunk)
		flush := func() bool {
			if len(buf) == 0 {
				return true
			}
			var chunk []Op
			select {
			case chunk = <-t.free:
				chunk = append(chunk[:0], buf...)
			default:
				chunk = make([]Op, len(buf))
				copy(chunk, buf)
			}
			buf = buf[:0]
			select {
			case t.ch <- chunk:
				return true
			case <-t.stop:
				return false
			}
		}
		emit := func(op Op) bool {
			buf = append(buf, op)
			if len(buf) == streamChunk {
				return flush()
			}
			return true
		}
		gen(emit)
		flush()
	}()
	return t
}

// Next implements TraceReader.
func (t *StreamTrace) Next() (Op, bool) {
	for t.pos >= len(t.cur) {
		if t.done {
			return Op{}, false
		}
		if t.cur != nil {
			select {
			case t.free <- t.cur[:0]:
			default:
			}
			t.cur = nil
		}
		chunk, ok := <-t.ch
		if !ok {
			t.done = true
			return Op{}, false
		}
		t.cur, t.pos = chunk, 0
	}
	op := t.cur[t.pos]
	t.pos++
	return op, true
}

// Close releases the generator goroutine. Safe to call multiple times and
// after exhaustion.
func (t *StreamTrace) Close() {
	select {
	case <-t.stop:
	default:
		close(t.stop)
	}
	// Drain so the generator's pending send unblocks and it observes stop.
	for range t.ch {
	}
	t.cur, t.pos = nil, 0
	t.done = true
}

// Count drains a trace and returns the number of ops. Intended for tests
// and trace statistics; it consumes the reader.
func Count(t TraceReader) int {
	n := 0
	for {
		if _, ok := t.Next(); !ok {
			return n
		}
		n++
	}
}

// Collect drains a trace into a slice. Intended for tests on small traces.
func Collect(t TraceReader) []Op {
	var ops []Op
	for {
		op, ok := t.Next()
		if !ok {
			return ops
		}
		ops = append(ops, op)
	}
}
