package core

import (
	"testing"

	"mdacache/internal/isa"
	"mdacache/internal/mem"
)

// memDefaultsForTest returns fast-ish memory parameters used by the unit
// tests (smaller structures keep randomised tests quick while exercising
// all controller paths).
func memDefaultsForTest() mem.Params {
	p := mem.DefaultParams()
	p.Channels = 2
	p.Banks = 4
	p.TileColsPerBank = 16
	return p
}

// mustRun drives the machine over a trace and fails the test on any
// simulation error (the watchdog/typed-error paths get their own tests).
func mustRun(t testing.TB, m *Machine, tr isa.TraceReader) *Results {
	t.Helper()
	res, err := m.RunTraces(tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
