package check

import (
	"testing"

	"mvrlu/internal/obs"
)

// gateThread reproduces the shape of an engine record site: a thread
// struct carrying a recorder pointer, guarded by the owner-local nil
// check that is the only gate. This is exactly what core/rlu/rcu and
// the index builds pay on every Deref, commit, and section boundary
// when no History is attached.
type gateThread struct {
	crec *ThreadRec
	ts   uint64
}

//go:noinline
func (t *gateThread) step() {
	if t.crec != nil {
		t.crec.Begin(t.ts)
	}
	t.ts++
}

// BenchmarkRecordSiteDisabled measures a record site with no recorder.
// Budget: ≤ 5 ns/op, zero allocations — same bar as internal/obs.
func BenchmarkRecordSiteDisabled(b *testing.B) {
	t := &gateThread{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t.step()
	}
	if t.ts != uint64(b.N) {
		b.Fatal("gate optimized away")
	}
}

// TestDisabledRecordSiteCost enforces the budget in the normal test
// run, mirroring internal/obs.TestDisabledRecordSiteCost.
func TestDisabledRecordSiteCost(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	res := testing.Benchmark(BenchmarkRecordSiteDisabled)
	if res.AllocsPerOp() != 0 {
		t.Fatalf("disabled record site allocates: %d allocs/op", res.AllocsPerOp())
	}
	if obs.RaceEnabled {
		t.Logf("race detector on; ns/op=%d (budget not enforced)", res.NsPerOp())
		return
	}
	if res.NsPerOp() > 5 {
		t.Fatalf("disabled record site costs %d ns/op, budget is 5", res.NsPerOp())
	}
}

// BenchmarkRecordEnabled tracks the recording-path cost (one ticket +
// one append under an uncontended mutex) so regressions show up in
// -bench sweeps.
func BenchmarkRecordEnabled(b *testing.B) {
	h := NewHistory(b.N + 1)
	t := &gateThread{crec: h.ThreadRec()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.step()
	}
}
