package mem

import (
	"testing"

	"mdacache/internal/isa"
)

// fillAsync issues a fill and returns a pointer that receives the
// completion cycle.
func fillAsync(m *Memory, at uint64, line isa.LineID) *uint64 {
	done := new(uint64)
	m.Fill(at, line, func(a uint64, _ *[8]uint64) { *done = a })
	return done
}

func TestFRFCFSPrefersOpenBuffer(t *testing.T) {
	// Two reads queued behind a busy bank: one hits the open line, one
	// does not. The buffer hit must be served first even though it arrived
	// second.
	p := DefaultParams()
	p.Channels, p.Banks, p.TileColsPerBank = 1, 1, 16
	p.XORBankHash = false
	q, m := newTestMemory(t, p)
	opened := isa.LineID{Base: 0, Orient: isa.Row}
	fillSync(t, q, m, 0, opened) // opens the row buffer

	// Saturate the bank with a long-running write so both reads queue.
	var d [8]uint64
	m.Writeback(q.Now(), isa.LineID{Base: isa.LineSize, Orient: isa.Row}, 0xff, d)

	other := fillAsync(m, q.Now(), isa.LineID{Base: 2 * isa.LineSize, Orient: isa.Row})
	hit := fillAsync(m, q.Now()+1, opened) // arrives later but hits the buffer
	q.Run(0)
	if *hit == 0 || *other == 0 {
		t.Fatal("reads never completed")
	}
	if *hit >= *other {
		t.Fatalf("FR-FCFS should serve the buffer hit first: hit=%d other=%d", *hit, *other)
	}
}

func TestBusSerializesChannels(t *testing.T) {
	// Two reads to different banks of the SAME channel share the data bus:
	// completions must be separated by at least the line transfer time.
	p := DefaultParams()
	p.Channels = 1
	p.XORBankHash = false
	q, m := newTestMemory(t, p)
	a := fillAsync(m, 0, isa.LineID{Base: 0, Orient: isa.Row})
	b := fillAsync(m, 0, isa.LineID{Base: isa.TileSize, Orient: isa.Row}) // next bank
	q.Run(0)
	gap := int64(*b) - int64(*a)
	if gap < 0 {
		gap = -gap
	}
	if uint64(gap) < 8*p.BusCyclesPerWord {
		t.Fatalf("bus not serialized: completions %d and %d", *a, *b)
	}
}

func TestChannelsRunInParallel(t *testing.T) {
	// The same two-read pattern across different channels overlaps fully.
	p := DefaultParams()
	p.XORBankHash = false
	q, m := newTestMemory(t, p)
	a := fillAsync(m, 0, isa.LineID{Base: 0, Orient: isa.Row})
	b := fillAsync(m, 0, isa.LineID{Base: isa.TileSize, Orient: isa.Row}) // next channel
	q.Run(0)
	if *a != *b {
		t.Fatalf("independent channels should complete together: %d vs %d", *a, *b)
	}
}

func TestCriticalWordBeforeFullTransfer(t *testing.T) {
	p := DefaultParams()
	q, m := newTestMemory(t, p)
	done, _ := fillSync(t, q, m, 0, isa.LineID{Base: 0, Orient: isa.Row})
	full := p.Precharge*0 + p.RCD + p.CAS + 8*p.BusCyclesPerWord
	if done >= full {
		t.Fatalf("critical word at %d, full transfer takes %d — no early delivery", done, full)
	}
}

func TestWriteRecoveryOccupiesBank(t *testing.T) {
	p := DefaultParams()
	p.Channels, p.Banks = 1, 1
	p.XORBankHash = false
	q, m := newTestMemory(t, p)
	var d [8]uint64
	m.Writeback(0, isa.LineID{Base: 0, Orient: isa.Row}, 0xff, d)
	after := fillAsync(m, 1, isa.LineID{Base: isa.LineSize, Orient: isa.Row})
	q.Run(0)
	if *after < p.RCD+p.CAS+8*p.BusCyclesPerWord+p.WriteRec {
		t.Fatalf("read at %d ignored write recovery", *after)
	}
}

func TestManyRequestsAllComplete(t *testing.T) {
	// Stress the retry/dedup machinery: hundreds of concurrent requests to
	// few banks must all finish with a bounded event count.
	p := DefaultParams()
	p.Channels, p.Banks = 1, 2
	p.XORBankHash = false
	q, m := newTestMemory(t, p)
	const n = 400
	count := 0
	for i := 0; i < n; i++ {
		m.Fill(uint64(i), isa.LineID{Base: uint64(i%32) * isa.TileSize, Orient: isa.Row},
			func(uint64, *[8]uint64) { count++ })
	}
	executed := q.Run(0)
	if count != n {
		t.Fatalf("completed %d/%d", count, n)
	}
	if executed > 40*n {
		t.Fatalf("event storm: %d events for %d requests", executed, n)
	}
}

func TestStatsBytesMatchMasks(t *testing.T) {
	q, m := newTestMemory(t, DefaultParams())
	var d [8]uint64
	m.Writeback(0, isa.LineID{Base: 0, Orient: isa.Row}, 0b1011, d) // 3 words
	fillSync(t, q, m, 0, isa.LineID{Base: isa.TileSize, Orient: isa.Col})
	if m.Stats().BytesWritten != 3*8 {
		t.Fatalf("bytes written = %d", m.Stats().BytesWritten)
	}
	if m.Stats().BytesRead != 64 {
		t.Fatalf("bytes read = %d", m.Stats().BytesRead)
	}
}

// TestRetryWakesStayBounded is the regression for stale retry wakes. A
// failed issue that re-arms the channel's retry to an earlier cycle leaves
// the old wake queued; if that stale wake runs issue again it can start a
// second retry chain, and on a channel whose queues never empty such chains
// pile up. Here one channel is kept saturated by a closed loop of
// outstanding fills to four banks, with write-backs interleaved while every
// bank is busy; the events dispatched per served request must stay small.
func TestRetryWakesStayBounded(t *testing.T) {
	p := DefaultParams()
	p.Channels, p.Banks = 1, 4
	p.XORBankHash = false
	q, m := newTestMemory(t, p)
	const total, outstanding = 4000, 12
	issued, served := 0, 0
	rng := uint64(1)
	var d [8]uint64
	var next func(at uint64)
	next = func(at uint64) {
		if issued == total {
			return
		}
		issued++
		rng = rng*6364136223846793005 + 1442695040888963407
		line := isa.LineID{Base: (rng >> 33) % 64 * isa.TileSize, Orient: isa.Orient(rng >> 63)}
		if issued%3 == 0 {
			m.Writeback(at, line, 0xff, d)
			served++
		}
		m.Fill(at, line, func(done uint64, _ *[8]uint64) {
			served++
			next(done)
		})
	}
	for i := 0; i < outstanding; i++ {
		next(uint64(i))
	}
	executed := q.Run(0)
	if issued != total {
		t.Fatalf("closed loop stopped after %d/%d fills", issued, total)
	}
	if perReq := float64(executed) / float64(served); perReq > 4 {
		t.Fatalf("%d events for %d served requests (%.1f per request): stale retry wakes are rescheduling", executed, served, perReq)
	}
}
