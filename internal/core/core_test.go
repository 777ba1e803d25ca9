package core

import (
	"testing"

	"mvrlu/internal/clock"
	"mvrlu/internal/failpoint"
)

type payload struct {
	A, B int
	Next *Object[payload]
}

func newTestDomain(t *testing.T, opts Options) *Domain[payload] {
	t.Helper()
	d := NewDomain[payload](opts)
	t.Cleanup(d.Close)
	return d
}

func TestReadMasterWithoutVersions(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{A: 7})
	h := d.Register()
	h.ReadLock()
	if got := h.Deref(o).A; got != 7 {
		t.Fatalf("Deref master = %d, want 7", got)
	}
	h.ReadUnlock()
}

func TestDerefNil(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	h := d.Register()
	h.ReadLock()
	if h.Deref(nil) != nil {
		t.Fatal("Deref(nil) should be nil")
	}
	h.ReadUnlock()
}

func TestWriteCommitVisible(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{A: 1})
	h := d.Register()

	h.ReadLock()
	c, ok := h.TryLock(o)
	if !ok {
		t.Fatal("TryLock failed on uncontended object")
	}
	c.A = 2
	// Uncommitted: a concurrent snapshot must not see the write.
	h2 := d.Register()
	h2.ReadLock()
	if got := h2.Deref(o).A; got != 1 {
		t.Fatalf("uncommitted write visible: got %d, want 1", got)
	}
	h2.ReadUnlock()
	h.ReadUnlock() // commit

	h2.ReadLock()
	if got := h2.Deref(o).A; got != 2 {
		t.Fatalf("committed write not visible: got %d, want 2", got)
	}
	h2.ReadUnlock()
}

func TestWriterSeesOwnWrites(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{A: 1})
	h := d.Register()
	h.ReadLock()
	c, _ := h.TryLock(o)
	c.A = 99
	// Re-locking in the same critical section returns the same copy.
	c2, ok := h.TryLock(o)
	if !ok {
		t.Fatal("re-lock by owner failed")
	}
	if c2 != c || c2.A != 99 {
		t.Fatal("re-lock did not return the same pending copy")
	}
	h.ReadUnlock()
}

func TestAbortDiscardsWrites(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{A: 1})
	h := d.Register()
	h.ReadLock()
	c, _ := h.TryLock(o)
	c.A = 42
	h.Abort()

	h.ReadLock()
	if got := h.Deref(o).A; got != 1 {
		t.Fatalf("aborted write visible: got %d, want 1", got)
	}
	// Object must be unlocked again.
	if _, ok := h.TryLock(o); !ok {
		t.Fatal("object still locked after abort")
	}
	h.Abort()
}

func TestTryLockConflict(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{})
	h1, h2 := d.Register(), d.Register()
	h1.ReadLock()
	h2.ReadLock()
	if _, ok := h1.TryLock(o); !ok {
		t.Fatal("first TryLock failed")
	}
	if _, ok := h2.TryLock(o); ok {
		t.Fatal("second TryLock should fail while locked")
	}
	h2.Abort()
	h1.ReadUnlock()
}

func TestTryLockConstConflicts(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{})
	h1, h2 := d.Register(), d.Register()
	h1.ReadLock()
	if !h1.TryLockConst(o) {
		t.Fatal("TryLockConst failed on uncontended object")
	}
	h2.ReadLock()
	if _, ok := h2.TryLock(o); ok {
		t.Fatal("TryLock should conflict with a const lock")
	}
	h2.Abort()
	h1.ReadUnlock()
	// Const lock committed: no version chain should exist.
	if d.ChainLen(o) != 0 {
		t.Fatalf("const lock published a version: chain len %d", d.ChainLen(o))
	}
}

func TestConstLockUpgrade(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{A: 5})
	h := d.Register()
	h.ReadLock()
	if !h.TryLockConst(o) {
		t.Fatal("const lock failed")
	}
	c, ok := h.TryLock(o) // upgrade
	if !ok {
		t.Fatal("upgrade failed")
	}
	c.A = 6
	h.ReadUnlock()
	h.ReadLock()
	if got := h.Deref(o).A; got != 6 {
		t.Fatalf("upgraded write lost: got %d, want 6", got)
	}
	h.ReadUnlock()
}

// TestFig3SnapshotOrdering reproduces Figure 3's semantics: a reader that
// entered before a removal still sees the removed node; a reader that
// entered after does not.
func TestFig3SnapshotOrdering(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	// list: head -> a -> b -> c
	c := NewObject(payload{A: 3})
	b := NewObject(payload{A: 2, Next: c})
	a := NewObject(payload{A: 1, Next: b})

	t1 := d.Register() // early reader
	t1.ReadLock()

	// Writer removes b.
	w := d.Register()
	w.ReadLock()
	ca, ok := w.TryLock(a)
	if !ok {
		t.Fatal("writer TryLock failed")
	}
	ca.Next = c
	if !w.Free(b) {
		// b must be locked before freeing.
		cb, ok := w.TryLock(b)
		if !ok {
			t.Fatal("lock b failed")
		}
		_ = cb
		if !w.Free(b) {
			t.Fatal("Free failed after lock")
		}
	}
	w.ReadUnlock()

	t2 := d.Register() // late reader
	t2.ReadLock()

	// t1 (old snapshot) still traverses b.
	if got := t1.Deref(t1.Deref(a).Next).A; got != 2 {
		t.Fatalf("early reader skipped b: got %d, want 2", got)
	}
	// t2 (new snapshot) skips b.
	if got := t2.Deref(t2.Deref(a).Next).A; got != 3 {
		t.Fatalf("late reader saw b: got %d, want 3", got)
	}
	t1.ReadUnlock()
	t2.ReadUnlock()
}

// TestFig2MVRLUProceeds: creating a third version does not block, unlike
// RLU's dual-version scheme (Figure 2).
func TestFig2MVRLUProceeds(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{A: 0})

	// A long-running reader pins the oldest snapshot so no version can
	// be reclaimed while the writers below stack up versions.
	pin := d.Register()
	pin.ReadLock()
	defer pin.ReadUnlock()

	w := d.Register()
	for i := 1; i <= 3; i++ {
		w.ReadLock()
		c, ok := w.TryLock(o)
		if !ok {
			t.Fatalf("TryLock #%d failed; MV-RLU must not block on extra versions", i)
		}
		c.A = i
		w.ReadUnlock()
	}
	if got := d.ChainLen(o); got < 3 {
		t.Fatalf("expected ≥3 live versions under a pinned reader, got %d", got)
	}
	w.ReadLock()
	if got := w.Deref(o).A; got != 3 {
		t.Fatalf("latest version = %d, want 3", got)
	}
	w.ReadUnlock()
}

func TestAtomicMultiPointerUpdate(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	x := NewObject(payload{A: 1})
	y := NewObject(payload{A: -1})
	h := d.Register()

	h.ReadLock()
	cx, _ := h.TryLock(x)
	cy, _ := h.TryLock(y)
	cx.A = 2
	cy.A = -2

	// A snapshot taken mid-write-set must see both old values.
	r := d.Register()
	r.ReadLock()
	if r.Deref(x).A+r.Deref(y).A != 0 {
		t.Fatal("partial write set visible")
	}
	r.ReadUnlock()

	h.ReadUnlock()

	r.ReadLock()
	if r.Deref(x).A != 2 || r.Deref(y).A != -2 {
		t.Fatal("write set not fully visible after commit")
	}
	r.ReadUnlock()
}

// TestReaderStampsCommittingHeader stops a commit between its two halves:
// both versions in their chains, the header sealed, no timestamp
// drawn. A reader that enters there stamps the commit itself, later than
// its own entry, so it sees neither write; the committer then adopts the
// reader's stamp. Were the header ∞ until the committer's draw landed, a
// reader entering between draw and store would see one object old and
// the other new.
func TestReaderStampsCommittingHeader(t *testing.T) {
	for _, mode := range []ClockMode{ClockOrdo, ClockGlobal} {
		opts := DefaultOptions()
		opts.ClockMode = mode
		d := newTestDomain(t, opts)
		x := NewObject(payload{A: 1})
		y := NewObject(payload{A: -1})
		w := d.Register()
		w.ReadLock()
		cx, _ := w.TryLock(x)
		cy, _ := w.TryLock(y)
		cx.A, cy.A = 2, -2
		// commit's front half, by hand.
		h := w.header()
		for _, v := range w.wset {
			v.ws = h
			v.obj.copy.Store(v)
		}
		h.Seal()

		r := d.Register()
		r.ReadLock()
		if gx, gy := r.Deref(x).A, r.Deref(y).A; gx != 1 || gy != -1 {
			t.Fatalf("mode %v: mid-commit reader saw x=%d y=%d, want 1 -1", mode, gx, gy)
		}
		stamped := h.Load()
		if stamped == clock.Committing || stamped <= r.SnapshotTS() {
			t.Fatalf("mode %v: header %d after a reader at %d met it, want a stamp above the reader", mode, stamped, r.SnapshotTS())
		}
		w.finishCommit()
		if got := w.LastCommitTS(); got != stamped {
			t.Fatalf("mode %v: committer used %d, want the reader's stamp %d", mode, got, stamped)
		}
		w.ReadUnlock()
		if gx, gy := r.Deref(x).A, r.Deref(y).A; gx != 1 || gy != -1 {
			t.Fatalf("mode %v: snapshot moved after the commit: x=%d y=%d", mode, gx, gy)
		}
		r.ReadUnlock()

		r.ReadLock()
		if gx, gy := r.Deref(x).A, r.Deref(y).A; gx != 2 || gy != -2 {
			t.Fatalf("mode %v: after the commit x=%d y=%d, want 2 -2", mode, gx, gy)
		}
		r.ReadUnlock()
	}
}

// TestWriteSetHeaderLifetime pins where a write set keeps its header:
// in the commit word of its last version, so the header outlives the
// set's earlier slots. A set whose first slot (a const copy, reclaimable
// at commit) closes log segment 0 and whose other versions lie in
// segment 1 loses segment 0 to reclamation while its versions are still
// chain heads. A reader that met one of them before the timestamp was
// copied in would then consult the header, which must still hold the
// commit timestamp — a header in the released segment reads Pending,
// i.e. "not yet committed", and the reader would skip a committed write.
// The detector is down: the test steps reclamation itself.
func TestWriteSetHeaderLifetime(t *testing.T) {
	defer failpoint.Reset()
	if err := failpoint.Enable("detector-scan=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	d := newTestDomain(t, DefaultOptions())
	z, c, b := NewObject(payload{}), NewObject(payload{}), NewObject(payload{})
	h := d.Register()
	defer h.Unregister()
	for i := 0; h.headC%logSegSlots != logSegSlots-1; i++ {
		h.ReadLock()
		cz, ok := h.TryLock(z)
		if !ok {
			t.Fatalf("TryLock(z) failed at write %d", i)
		}
		cz.A = i
		h.ReadUnlock()
	}
	h.ReadLock()
	if !h.TryLockConst(c) {
		t.Fatal("TryLockConst(c) failed")
	}
	cz, okz := h.TryLock(z)
	cb, okb := h.TryLock(b)
	if !okz || !okb {
		t.Fatal("TryLock failed")
	}
	cz.A, cb.A = -1, 7
	h.ReadUnlock()
	if h.headC != logSegSlots+2 {
		t.Fatalf("the set ends at head %d, want %d", h.headC, logSegSlots+2)
	}
	cts, vb := h.LastCommitTS(), b.copy.Load()

	r := d.Register()
	r.ReadLock()
	for i := 0; h.segLo == 0 && i < 8; i++ {
		d.refreshWatermark()
		h.collect()
	}
	released, header := h.segLo != 0, vb.ws.Load()
	gb, gz := r.Deref(b).A, r.Deref(z).A
	r.ReadUnlock()
	r.Unregister()
	if !released {
		t.Fatal("segment 0 was never released")
	}
	if header != cts {
		t.Fatalf("b's write-set header reads %d once segment 0 was released, want the commit timestamp %d", header, cts)
	}
	if gb != 7 || gz != -1 {
		t.Fatalf("pinned reader sees b=%d z=%d, want 7 -1", gb, gz)
	}
	for _, o := range []*Object[payload]{z, b} {
		if err := d.CheckObject(o); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFreeBlocksFutureLocks: a committed Free leaves the domain's freed
// marker in the object's pending word, so the object stays locked for
// good — TryLock fails, and a freed object is no conflict, so LockFails
// does not count it — even once reclamation has reused the freeing
// version's log slot for the very write set that retries the lock. (A
// lock word still pointing at that slot would name this thread's write
// set, and TryLock would hand back another object's copy.) The slot is
// reused once its segment is released and installed again, one segment
// of writes later. The detector is down: the test steps reclamation
// itself.
func TestFreeBlocksFutureLocks(t *testing.T) {
	defer failpoint.Reset()
	if err := failpoint.Enable("detector-scan=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.LogSlots = 16
	d := newTestDomain(t, opts)
	o, other := NewObject(payload{A: 1}), NewObject(payload{})
	h := d.Register()
	h.ReadLock()
	if _, ok := h.TryLock(o); !ok {
		t.Fatal("lock failed")
	}
	if !h.Free(o) {
		t.Fatal("Free failed")
	}
	h.ReadUnlock()
	freeing := o.copy.Load()

	stillFreed := func(when string) {
		t.Helper()
		if !o.Freed() {
			t.Fatalf("%s: Freed() = false", when)
		}
		if p := o.pending.Load(); p != d.freed {
			t.Fatalf("%s: pending holds %p, want the freed marker %p", when, p, d.freed)
		}
		before := d.Stats().LockFails
		if _, ok := h.TryLock(o); ok {
			t.Fatalf("%s: TryLock succeeded on a freed object", when)
		}
		if h.TryLockConst(o) {
			t.Fatalf("%s: TryLockConst succeeded on a freed object", when)
		}
		if n := d.Stats().LockFails - before; n != 0 {
			t.Fatalf("%s: locking a freed object counted %d lock failures, want 0", when, n)
		}
	}
	h.ReadLock()
	stillFreed("after the free")
	h.Abort()

	for i := 0; freeing.obj != other; i++ {
		if i == 4*logSegSlots {
			t.Fatalf("the freeing version's slot was not reused in %d writes", i)
		}
		d.refreshWatermark()
		h.collect()
		h.ReadLock()
		c, ok := h.TryLock(other)
		if !ok {
			t.Fatalf("TryLock(other) failed at write %d", i)
		}
		c.A = i
		if freeing.obj == other {
			stillFreed("with the freeing slot in this write set")
		}
		h.ReadUnlock()
	}
	h.ReadLock()
	stillFreed("after the slot's reuse committed")
	h.Abort()
	if err := d.CheckObject(o); err != nil {
		t.Fatalf("CheckObject on the freed object: %v", err)
	}
}

func TestFreeRequiresLock(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{})
	h := d.Register()
	h.ReadLock()
	if h.Free(o) {
		t.Fatal("Free must fail without holding the lock")
	}
	h.ReadUnlock()
}

func TestAbortAfterFreeRollsBack(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{})
	h := d.Register()
	h.ReadLock()
	h.TryLock(o)
	h.Free(o)
	h.Abort()
	if o.Freed() {
		t.Fatal("aborted free took effect")
	}
	h.ReadLock()
	if _, ok := h.TryLock(o); !ok {
		t.Fatal("object unusable after aborted free")
	}
	h.Abort()
}

func TestExecuteRetries(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{})
	h1, h2 := d.Register(), d.Register()

	h1.ReadLock()
	h1.TryLock(o) // hold the lock

	done := make(chan struct{})
	attempted := make(chan struct{})
	go func() {
		defer close(done)
		attempts := 0
		h2.Execute(func(h *Thread[payload]) bool {
			attempts++
			c, ok := h.TryLock(o)
			if attempts == 1 {
				close(attempted)
				if ok {
					t.Error("TryLock succeeded while lock was held")
				}
			}
			if !ok {
				return false // abort & retry
			}
			c.A = 10
			return true
		})
		if attempts < 2 {
			t.Error("Execute did not retry")
		}
	}()

	<-attempted
	h1.ReadUnlock()
	<-done
	h2.ReadLock()
	if got := h2.Deref(o).A; got != 10 {
		t.Fatalf("Execute result = %d, want 10", got)
	}
	h2.ReadUnlock()
}

func TestPanicsOutsideCriticalSection(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	h := d.Register()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s outside CS did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("ReadUnlock", func() { h.ReadUnlock() })
	mustPanic("Abort", func() { h.Abort() })
	mustPanic("TryLock", func() { h.TryLock(NewObject(payload{})) })
	h.ReadLock()
	mustPanic("nested ReadLock", func() { h.ReadLock() })
	h.ReadUnlock()
}

// TestWritebackAndReclaim: 200 commits on one object recycle a 64-slot
// log, and the last one reaches the master. The detector is down, so
// every watermark is one the thread takes itself and the test decides
// when reclamation sees the last commit: one refresh and one GC pass
// after the loop must write it back.
func TestWritebackAndReclaim(t *testing.T) {
	defer failpoint.Reset()
	if err := failpoint.Enable("detector-scan=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.LogSlots = 64
	d := newTestDomain(t, opts)
	o := NewObject(payload{})
	h := d.Register()

	for i := 1; i <= 200; i++ {
		h.ReadLock()
		c, ok := h.TryLock(o)
		if !ok {
			t.Fatalf("TryLock failed at iteration %d (log should recycle)", i)
		}
		c.A = i
		h.ReadUnlock()
	}
	d.refreshWatermark()
	h.collect()
	if o.master.A != 200 {
		t.Fatalf("master value %d after the write-back, want 200", o.master.A)
	}
	h.ReadLock()
	if got := h.Deref(o).A; got != 200 {
		t.Fatalf("final value %d, want 200", got)
	}
	h.ReadUnlock()
	s := d.Stats()
	if s.Reclaimed == 0 || s.Writebacks == 0 {
		t.Fatalf("expected reclamation activity, got %+v", s)
	}
}

func TestWritebackPreservesValue(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 16
	d := newTestDomain(t, opts)
	o := NewObject(payload{A: 1})
	h := d.Register()
	h.ReadLock()
	c, _ := h.TryLock(o)
	c.A = 77
	h.ReadUnlock()

	// Force enough churn on other objects to cycle the log and write o
	// back to its master.
	spare := NewObject(payload{})
	for i := 0; i < 100; i++ {
		h.ReadLock()
		cc, ok := h.TryLock(spare)
		if ok {
			cc.A = i
		}
		h.ReadUnlock()
	}
	h.ReadLock()
	if got := h.Deref(o).A; got != 77 {
		t.Fatalf("value lost across writeback: got %d, want 77", got)
	}
	h.ReadUnlock()
}

func TestLogExhaustionFailsTryLockNotDeadlock(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 8
	opts.HighCapacity = 1.0
	d := newTestDomain(t, opts)
	h := d.Register()

	// One critical section that writes more objects than the log holds
	// must panic (write set exceeds capacity) rather than hang —
	// there is nothing to reclaim inside one's own critical section.
	defer func() {
		if recover() == nil {
			t.Fatal("oversized write set should panic")
		}
		// Leave the handle in a sane state for Cleanup.
		if h.InCS() {
			h.Abort()
		}
	}()
	h.ReadLock()
	for i := 0; i < 100; i++ {
		o := NewObject(payload{})
		if _, ok := h.TryLock(o); !ok {
			t.Fatal("TryLock failed before capacity panic")
		}
	}
}

func TestSingleCollectorMode(t *testing.T) {
	opts := DefaultOptions()
	opts.GCMode = GCSingleCollector
	opts.LogSlots = 64
	d := newTestDomain(t, opts)
	o := NewObject(payload{})
	h := d.Register()
	for i := 1; i <= 300; i++ {
		h.ReadLock()
		c, ok := h.TryLock(o)
		if !ok {
			// The collector may lag; abort and retry.
			h.Abort()
			i--
			continue
		}
		c.A = i
		h.ReadUnlock()
	}
	h.ReadLock()
	if got := h.Deref(o).A; got != 300 {
		t.Fatalf("final value %d, want 300", got)
	}
	h.ReadUnlock()
}

func TestGlobalClockMode(t *testing.T) {
	opts := DefaultOptions()
	opts.ClockMode = ClockGlobal
	d := newTestDomain(t, opts)
	o := NewObject(payload{})
	h := d.Register()
	for i := 1; i <= 50; i++ {
		h.ReadLock()
		c, ok := h.TryLock(o)
		if !ok {
			t.Fatalf("TryLock failed under global clock at %d", i)
		}
		c.A = i
		h.ReadUnlock()
	}
	h.ReadLock()
	if got := h.Deref(o).A; got != 50 {
		t.Fatalf("got %d, want 50", got)
	}
	h.ReadUnlock()
}

func TestStatsAccounting(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{})
	h := d.Register()
	h.ReadLock()
	h.TryLock(o)
	h.ReadUnlock()
	h.ReadLock()
	h.TryLock(o)
	h.Abort()
	s := d.Stats()
	if s.Commits != 1 || s.Aborts != 1 {
		t.Fatalf("commits=%d aborts=%d, want 1/1", s.Commits, s.Aborts)
	}
	if got := s.AbortRatio(); got != 0.5 {
		t.Fatalf("abort ratio %f, want 0.5", got)
	}
}
