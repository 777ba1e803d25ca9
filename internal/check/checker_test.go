package check

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// rules collects the distinct rule names in a report.
func rules(r *Report) map[string]int {
	m := map[string]int{}
	for _, v := range r.Violations {
		m[v.Rule]++
	}
	return m
}

func wantClean(t *testing.T, r *Report) {
	t.Helper()
	if !r.Ok() {
		t.Fatalf("expected clean verdict, got:\n%s", r)
	}
}

func wantRule(t *testing.T, r *Report, rule, substr string) {
	t.Helper()
	for _, v := range r.Violations {
		if v.Rule == rule && strings.Contains(v.Detail, substr) {
			return
		}
	}
	t.Fatalf("expected a %q violation containing %q, got:\n%s", rule, substr, r)
}

// TestValidSI: a well-formed two-thread history — write, watermark,
// read back — produces a clean verdict.
func TestValidSI(t *testing.T) {
	h := NewHistory(0)
	w, r := h.ThreadRec(), h.ThreadRec()

	w.Begin(10)
	w.Deref(1, 0, 0, FlagFromMaster) // pristine master
	w.Write(1, 15, 0, FlagFromMaster)
	w.End()
	h.Watermark(20, 20, 0)
	r.Begin(25)
	r.Deref(1, 15, 1, 0)
	r.End()

	rep := Check(h, Opts{})
	wantClean(t, rep)
	if rep.Sections != 2 || rep.Commits != 1 || rep.Derefs != 2 || rep.Watermarks != 1 {
		t.Fatalf("miscounted: %s", rep)
	}
}

// TestOrdoWindowAmbiguity: observing a version whose commit timestamp
// lies inside the ORDO window of the entry timestamp is a snapshot
// violation; outside the window it is clean.
func TestOrdoWindowAmbiguity(t *testing.T) {
	const B = 1000
	h := NewHistory(0)
	w, r := h.ThreadRec(), h.ThreadRec()
	w.Begin(100)
	w.Write(1, 1500, 0, FlagFromMaster)
	w.End()
	r.Begin(2000)
	r.Deref(1, 1500, 1, 0) // 2000-1500 = 500 < B: ambiguous
	r.End()
	r.Begin(3000)
	r.Deref(1, 1500, 1, 0) // 1500 ≥ B past: fine
	r.End()

	rep := Check(h, Opts{Boundary: B})
	wantRule(t, rep, "snapshot", "ORDO window")
	if rep.Total != 1 {
		t.Fatalf("want exactly the window violation, got:\n%s", rep)
	}

	// The same history with no ORDO window is clean.
	wantClean(t, Check(h, Opts{}))
}

// TestStaleRead: returning an old version when a newer one was
// unambiguously committed before entry is flagged.
func TestStaleRead(t *testing.T) {
	h := NewHistory(0)
	w, r := h.ThreadRec(), h.ThreadRec()
	w.Begin(5)
	w.Write(1, 10, 0, FlagFromMaster)
	w.End()
	w.Begin(12)
	w.Write(1, 20, 10, 0)
	w.End()
	r.Begin(50)
	r.Deref(1, 10, 2, 0) // version 20 was committed long before 50
	r.End()

	wantRule(t, Check(h, Opts{}), "snapshot", "stale read")
}

// TestStaleMaster: observing the master while an unambiguous commit was
// never written back is flagged; after a write-back it is clean.
func TestStaleMaster(t *testing.T) {
	build := func(writeback bool) *History {
		h := NewHistory(0)
		w, r := h.ThreadRec(), h.ThreadRec()
		w.Begin(5)
		w.Write(1, 10, 0, FlagFromMaster)
		w.End()
		if writeback {
			h.Writeback(1, 10, 30)
		}
		r.Begin(50)
		r.Deref(1, 0, 0, FlagFromMaster)
		r.End()
		return h
	}
	wantRule(t, Check(build(false), Opts{}), "snapshot", "never written back")
	wantClean(t, Check(build(true), Opts{}))
}

// TestLostUpdate covers both shapes: a commit that locked the master
// while its predecessor was still only in the chain, and a commit whose
// basedOn skips over an intermediate commit.
func TestLostUpdate(t *testing.T) {
	h := NewHistory(0)
	a, b := h.ThreadRec(), h.ThreadRec()
	a.Begin(5)
	a.Write(1, 10, 0, FlagFromMaster)
	a.End()
	b.Begin(15)
	b.Write(1, 20, 0, FlagFromMaster) // no write-back of 10: lost update
	b.End()
	wantRule(t, Check(h, Opts{}), "lost-update", "never written back")

	h2 := NewHistory(0)
	c := h2.ThreadRec()
	c.Begin(5)
	c.Write(2, 10, 0, FlagFromMaster)
	c.End()
	c.Begin(15)
	c.Write(2, 20, 10, 0)
	c.End()
	c.Begin(25)
	c.Write(2, 30, 10, 0) // skips the commit at 20
	c.End()
	wantRule(t, Check(h2, Opts{}), "lost-update", "skipping commit at 20")

	// The valid chain: each commit based on its predecessor, or on the
	// master after a write-back.
	h3 := NewHistory(0)
	d := h3.ThreadRec()
	d.Begin(5)
	d.Write(3, 10, 0, FlagFromMaster)
	d.End()
	d.Begin(15)
	d.Write(3, 20, 10, 0)
	d.End()
	h3.Writeback(3, 20, 28)
	d.Begin(30)
	d.Write(3, 35, 0, FlagFromMaster)
	d.End()
	wantClean(t, Check(h3, Opts{}))
}

// TestWriteSkew: a TryLockConst commit that validated a version with an
// intervening commit is flagged; validating the true predecessor is not.
func TestWriteSkew(t *testing.T) {
	h := NewHistory(0)
	a, b := h.ThreadRec(), h.ThreadRec()
	a.Begin(5)
	a.Write(1, 10, 0, FlagFromMaster)
	a.End()
	a.Begin(15)
	a.Write(1, 20, 10, 0)
	a.End()
	b.Begin(25)
	b.Write(1, 30, 10, FlagConst) // validated 10, but 20 intervened
	b.Write(2, 30, 0, FlagFromMaster)
	b.End()
	wantRule(t, Check(h, Opts{}), "write-skew", "commit at 20 intervened")

	h2 := NewHistory(0)
	c, d := h2.ThreadRec(), h2.ThreadRec()
	c.Begin(5)
	c.Write(1, 10, 0, FlagFromMaster)
	c.End()
	d.Begin(25)
	d.Write(1, 30, 10, FlagConst) // 10 is still newest: no skew
	d.Write(2, 30, 0, FlagFromMaster)
	d.End()
	wantClean(t, Check(h2, Opts{}))
}

// TestPrematureReclaim: reclaiming a version whose superseded timestamp
// is not below the watermark — or under a watermark newer than any
// broadcast — is flagged.
func TestPrematureReclaim(t *testing.T) {
	h := NewHistory(0)
	w := h.ThreadRec()
	w.Begin(5)
	w.Write(1, 10, 0, FlagFromMaster)
	w.End()
	w.Begin(15)
	w.Write(1, 20, 10, 0)
	w.End()
	h.Watermark(50, 50, 0)
	h.Reclaim(1, 10, 60, 0, 50, 0) // superseded at 60 ≥ watermark 50
	wantRule(t, Check(h, Opts{}), "premature-reclaim", "reclaimed under watermark 50")

	h2 := NewHistory(0)
	v := h2.ThreadRec()
	v.Begin(5)
	v.Write(1, 10, 0, FlagFromMaster)
	v.End()
	v.Begin(15)
	v.Write(1, 20, 10, 0)
	v.End()
	h2.Reclaim(1, 10, 20, 0, 80, 0) // no broadcast ever reached 80
	wantRule(t, Check(h2, Opts{}), "premature-reclaim", "ahead of newest broadcast")

	h3 := NewHistory(0)
	u := h3.ThreadRec()
	u.Begin(5)
	u.Write(1, 10, 0, FlagFromMaster)
	u.End()
	u.Begin(15)
	u.Write(1, 20, 10, 0)
	u.End()
	h3.Watermark(50, 50, 0)
	h3.Reclaim(1, 10, 20, 0, 50, 0) // superseded at 20 < 50: legal
	wantClean(t, Check(h3, Opts{}))
}

// TestUseAfterReclaim: an observation ticketed after the reclamation of
// the version it saw is a use-after-free.
func TestUseAfterReclaim(t *testing.T) {
	h := NewHistory(0)
	w, r := h.ThreadRec(), h.ThreadRec()
	w.Begin(5)
	w.Write(1, 10, 0, FlagFromMaster)
	w.End()
	w.Begin(15)
	w.Write(1, 20, 10, 0)
	w.End()
	h.Watermark(50, 50, 0)
	h.Reclaim(1, 10, 20, 0, 50, 0)
	r.Begin(55)
	r.Deref(1, 10, 2, 0) // observed the reclaimed version
	r.End()
	wantRule(t, Check(h, Opts{}), "use-after-reclaim", "after reclaim")
}

// TestResetBeforeReclaim: a log slot reset for reuse with no earlier
// reclaim of the version it held was released ahead of the tail. The rule
// stays live, and silent on a correct record, once streams truncate.
func TestResetBeforeReclaim(t *testing.T) {
	build := func(max int) (*History, *ThreadRec) {
		h := NewHistory(max)
		w := h.ThreadRec()
		w.Begin(5)
		w.Write(1, 10, 0, FlagFromMaster)
		w.End()
		w.Begin(15)
		w.Write(1, 20, 10, 0)
		w.End()
		h.Watermark(50, 50, 0)
		return h, w
	}
	h, _ := build(0)
	h.Reclaim(1, 10, 20, 0, 50, 0)
	h.SlotReset(1, 10)
	rep := Check(h, Opts{})
	wantClean(t, rep)
	if rep.SlotResets != 1 {
		t.Fatalf("SlotResets = %d, want 1", rep.SlotResets)
	}

	h2, _ := build(0)
	h2.SlotReset(1, 20) // the newest version: never reclaimed
	h2.Reclaim(1, 20, 0, 0, 50, FlagFree)
	wantRule(t, Check(h2, Opts{}), "reset-before-reclaim", "obj 1 version 20")

	// The thread stream drops its second section and the global stream
	// its last two events: nothing recorded is judged against a
	// dropped event, and the recorded early reset is still named.
	h3, w3 := build(4)
	h3.Reclaim(1, 10, 20, 0, 50, 0)
	h3.SlotReset(1, 20)
	h3.SlotReset(1, 10)
	h3.Reclaim(1, 20, 0, 0, 50, FlagFree)
	w3.Begin(60)
	w3.End()
	rep3 := Check(h3, Opts{})
	if !rep3.Truncated {
		t.Fatal("history not truncated")
	}
	wantRule(t, rep3, "reset-before-reclaim", "obj 1 version 20")
	if rep3.Total != 1 {
		t.Fatalf("truncated history: %v", rep3)
	}
}

// TestWatermarkBroadcast: publishing more than min-entry-ts minus the
// boundary (the mutation-mode bug), or scanning a minimum above a
// provably pinned reader, is flagged.
func TestWatermarkBroadcast(t *testing.T) {
	h := NewHistory(0)
	h.Watermark(100, 100, 50) // published raw without subtracting boundary
	wantRule(t, Check(h, Opts{Boundary: 50}), "watermark", "allows at most 50")

	h2 := NewHistory(0)
	r := h2.ThreadRec()
	r.Begin(30)
	h2.Watermark(40, 40, 0) // scan claims min 40 while a reader pins 30
	r.End()
	wantRule(t, Check(h2, Opts{}), "watermark", "past reader pinned at 30")

	h3 := NewHistory(0)
	s := h3.ThreadRec()
	s.Begin(30)
	h3.Watermark(30, 30, 0) // bounded by the pinned reader: fine
	s.End()
	wantClean(t, Check(h3, Opts{}))
}

// TestMonotonicSnapshot: per-thread entry timestamps may not regress.
func TestMonotonicSnapshot(t *testing.T) {
	h := NewHistory(0)
	r := h.ThreadRec()
	r.Begin(20)
	r.End()
	r.Begin(10)
	r.End()
	wantRule(t, Check(h, Opts{}), "monotonic-snapshot", "entry ts 10 after entry ts 20")
}

// TestStructural: events outside sections, writes in aborted sections,
// and commit timestamps before entry are all malformed.
func TestStructural(t *testing.T) {
	h := NewHistory(0)
	r := h.ThreadRec()
	r.Deref(1, 0, 0, FlagFromMaster) // outside any section
	r.Begin(10)
	r.Write(1, 5, 0, FlagFromMaster) // commit ts before entry ts
	r.End()
	rep := Check(h, Opts{})
	m := rules(rep)
	if m["structure"] == 0 || m["commit-ts"] == 0 {
		t.Fatalf("expected structure + commit-ts violations, got:\n%s", rep)
	}

	h2 := NewHistory(0)
	a := h2.ThreadRec()
	a.Begin(10)
	a.Write(1, 15, 0, FlagFromMaster)
	a.Abort() // aborted sections must not carry commits
	wantRule(t, Check(h2, Opts{}), "structure", "aborted")
}

// TestWriteAfterFree: a commit on an object after its freeing commit.
func TestWriteAfterFree(t *testing.T) {
	h := NewHistory(0)
	w := h.ThreadRec()
	w.Begin(5)
	w.Write(1, 10, 0, FlagFromMaster|FlagFree)
	w.End()
	w.Begin(15)
	w.Write(1, 20, 10, 0)
	w.End()
	wantRule(t, Check(h, Opts{}), "write-after-free", "after free")
}

// TestTruncation: a capped history is marked truncated and the checker
// relaxes the completeness-dependent rules instead of misfiring.
func TestTruncation(t *testing.T) {
	h := NewHistory(2)
	r := h.ThreadRec()
	r.Begin(5)
	r.End()
	r.Begin(15) // third event: dropped
	r.End()
	if !h.Truncated() {
		t.Fatal("cap of 2 with 4 records should truncate")
	}
	if h.Events() != 2 {
		t.Fatalf("events = %d, want 2", h.Events())
	}

	// basedOn pointing at an unrecorded commit is forgiven only under
	// truncation.
	h2 := NewHistory(3)
	w := h2.ThreadRec()
	w.Begin(5)
	w.Write(1, 10, 7, 0) // based on a commit the record no longer has
	w.End()
	w.Begin(15) // overflows the cap
	rep := Check(h2, Opts{})
	if !rep.Truncated {
		t.Fatal("report should be marked truncated")
	}
	if m := rules(rep); m["lost-update"] != 0 {
		t.Fatalf("lost-update must be relaxed under truncation:\n%s", rep)
	}

	// The same record untruncated is a violation.
	h3 := NewHistory(0)
	v := h3.ThreadRec()
	v.Begin(5)
	v.Write(1, 10, 7, 0)
	v.End()
	wantRule(t, Check(h3, Opts{}), "lost-update", "unrecorded version")
}

// TestRCUGracePeriod: a synchronize that returns while a section that
// predates it is still active is a violation; one that waits is not.
func TestRCUGracePeriod(t *testing.T) {
	h := NewHistory(0)
	r, s := h.ThreadRec(), h.ThreadRec()
	r.RCUBegin()
	s.RCUSyncStart()
	s.RCUSyncEnd() // returned while r's section is open
	r.RCUEnd()
	wantRule(t, CheckRCU(h), "grace-period", "was active")

	h2 := NewHistory(0)
	r2, s2 := h2.ThreadRec(), h2.ThreadRec()
	r2.RCUBegin()
	s2.RCUSyncStart()
	r2.RCUEnd() // reader left before the synchronize returned
	s2.RCUSyncEnd()
	r2.RCUBegin() // section beginning after the sync started is exempt
	r2.RCUEnd()
	wantClean(t, CheckRCU(h2))

	// A section with no recorded end (recording stopped) is not counted.
	h3 := NewHistory(0)
	r3, s3 := h3.ThreadRec(), h3.ThreadRec()
	r3.RCUBegin()
	s3.RCUSyncStart()
	s3.RCUSyncEnd()
	wantClean(t, CheckRCU(h3))
}

// TestViolationCap: the report keeps MaxViolations entries but counts
// everything.
func TestViolationCap(t *testing.T) {
	h := NewHistory(0)
	r := h.ThreadRec()
	for i := 0; i < 10; i++ {
		r.Deref(1, 0, 0, FlagFromMaster) // all outside sections
	}
	rep := Check(h, Opts{MaxViolations: 3})
	if rep.Total != 10 || len(rep.Violations) != 3 {
		t.Fatalf("total=%d kept=%d, want 10/3", rep.Total, len(rep.Violations))
	}
	if !strings.Contains(rep.String(), "and 7 more") {
		t.Fatalf("String should note the dropped findings:\n%s", rep)
	}
}

// TestObjID: an object's id is the same through the history and every
// thread's cache, including threads asking at once; two objects never
// share an id, not even once a recorded object is dropped and the
// runtime's collector is free to hand its memory to a new object.
func TestObjID(t *testing.T) {
	type obj struct{ a, b uint64 }
	h := NewHistory(0)
	shared := make([]*obj, 64)
	for i := range shared {
		shared[i] = new(obj)
	}
	recs := make([]*ThreadRec, 4)
	ids := make([][]uint64, len(recs))
	var wg sync.WaitGroup
	for w := range recs {
		recs[w] = h.ThreadRec()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for pass := 0; pass < 2; pass++ {
				ids[w] = ids[w][:0]
				for _, o := range shared {
					ids[w] = append(ids[w], recs[w].ObjID(unsafe.Pointer(o)))
				}
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for i, o := range shared {
		id := h.ObjID(unsafe.Pointer(o))
		for w := range recs {
			if ids[w][i] != id {
				t.Fatalf("object %d: thread %d saw id %d, the history %d", i, w, ids[w][i], id)
			}
		}
		if id == 0 || seen[id] {
			t.Fatalf("object %d: id %d is zero or already taken", i, id)
		}
		seen[id] = true
	}
	r := recs[0]
	for round := 0; round < 8; round++ {
		for i := 0; i < 512; i++ {
			id := r.ObjID(unsafe.Pointer(new(obj))) // recorded, then dropped
			if seen[id] {
				t.Fatalf("round %d: id %d named two objects", round, id)
			}
			seen[id] = true
		}
		runtime.GC()
	}
}
