package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/failpoint"
)

// catchPanic runs fn and returns the recovered panic value (nil if fn
// returned normally).
func catchPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// eventually polls cond until it holds or the deadline expires.
func eventually(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", timeout, msg)
}

// TestExecutePanicMidWriteSet is the headline robustness property: a
// transaction that panics with half its write set locked must leave every
// object unlocked, the log head rewound, the local timestamp unpinned —
// and the rest of the domain unaffected.
func TestExecutePanicMidWriteSet(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o1 := NewObject(payload{A: 1})
	o2 := NewObject(payload{A: 2})
	h := d.Register()

	r := catchPanic(func() {
		h.Execute(func(th *Thread[payload]) bool {
			c1, ok := th.TryLock(o1)
			if !ok {
				return false
			}
			c1.A = 100
			if _, ok := th.TryLock(o2); !ok {
				return false
			}
			panic("user bug")
		})
	})
	if r == nil || r.(string) != "user bug" {
		t.Fatalf("panic not propagated: %v", r)
	}
	if h.InCS() {
		t.Fatal("handle still inside critical section after panic")
	}
	if ts := h.pin.localTS.Load(); ts != 0 {
		t.Fatalf("local timestamp still pinned: %d", ts)
	}
	if o1.pending.Load() != nil || o2.pending.Load() != nil {
		t.Fatal("objects left locked after panic rollback")
	}
	if occ := h.LogOccupancy(); occ != 0 {
		t.Fatalf("log head not rewound: occupancy %d", occ)
	}

	// The tentative write must not have escaped, and other threads must
	// be able to lock and commit both objects.
	h2 := d.Register()
	h2.Execute(func(th *Thread[payload]) bool {
		if got := th.Deref(o1).A; got != 1 {
			t.Errorf("tentative write leaked: o1.A = %d", got)
		}
		c1, ok1 := th.TryLock(o1)
		c2, ok2 := th.TryLock(o2)
		if !ok1 || !ok2 {
			t.Error("objects not lockable after panic rollback")
			return true
		}
		c1.A, c2.A = 10, 20
		return true
	})

	// The watermark must advance past the panicked section's timestamp.
	before := d.Watermark()
	eventually(t, 2*time.Second, func() bool {
		return d.refreshWatermark() > before
	}, "watermark did not advance after panic rollback")

	// The panicked handle stays usable.
	h.Execute(func(th *Thread[payload]) bool {
		if got := th.Deref(o1).A; got != 10 {
			t.Errorf("post-panic Deref = %d, want 10", got)
		}
		return true
	})
	if s := d.Stats(); s.PanicAborts != 1 {
		t.Fatalf("PanicAborts = %d, want 1", s.PanicAborts)
	}
	if err := d.CheckObject(o1); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckObject(o2); err != nil {
		t.Fatal(err)
	}
}

// TestFailpointReadLockPin injects a panic in ReadLock's pin window — after
// the conservative pin is published, before the timestamp stamp. The guard
// must drop the pin on the unwind or the watermark wedges forever.
func TestFailpointReadLockPin(t *testing.T) {
	defer failpoint.Reset()
	d := newTestDomain(t, DefaultOptions())
	h := d.Register()
	o := NewObject(payload{A: 3})

	if err := failpoint.Enable("readlock-pin=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	r := catchPanic(func() { h.ReadLock() })
	if !failpoint.IsInjected(r) {
		t.Fatalf("expected injected panic, got %v", r)
	}
	if h.InCS() || h.pin.localTS.Load() != 0 {
		t.Fatal("pin leaked out of ReadLock panic")
	}
	failpoint.Reset()

	h.ReadLock()
	if got := h.Deref(o).A; got != 3 {
		t.Fatalf("Deref after recovered pin panic = %d", got)
	}
	h.ReadUnlock()
}

// TestFailpointTryLockCAS injects a panic between slot allocation and the
// pending CAS with one object already locked: the slot must be popped and
// the earlier lock released by the rollback.
func TestFailpointTryLockCAS(t *testing.T) {
	defer failpoint.Reset()
	d := newTestDomain(t, DefaultOptions())
	o1 := NewObject(payload{A: 1})
	o2 := NewObject(payload{A: 2})
	h := d.Register()

	r := catchPanic(func() {
		h.Execute(func(th *Thread[payload]) bool {
			c1, ok := th.TryLock(o1)
			if !ok {
				return false
			}
			c1.A = 50
			// Arm only now, so the first TryLock ran clean and the
			// panic lands mid-write-set.
			if err := failpoint.Enable("trylock-cas=panic/1", 1); err != nil {
				t.Error(err)
			}
			th.TryLock(o2)
			return true
		})
	})
	failpoint.Reset()
	if !failpoint.IsInjected(r) {
		t.Fatalf("expected injected panic, got %v", r)
	}
	if h.InCS() || h.pin.localTS.Load() != 0 {
		t.Fatal("critical section leaked")
	}
	if o1.pending.Load() != nil || o2.pending.Load() != nil {
		t.Fatal("objects left locked")
	}
	if occ := h.LogOccupancy(); occ != 0 {
		t.Fatalf("log occupancy %d after rollback, want 0", occ)
	}
	h2 := d.Register()
	h2.Execute(func(th *Thread[payload]) bool {
		if got := th.Deref(o1).A; got != 1 {
			t.Errorf("tentative write leaked: %d", got)
		}
		return true
	})
	if s := d.Stats(); s.PanicAborts != 1 {
		t.Fatalf("PanicAborts = %d, want 1", s.PanicAborts)
	}
}

// TestFailpointCommitPublish injects a panic between publishing the write
// set's copies and stamping the duplicate commit timestamps. The commit
// must complete on the unwind — the copies are already chain-reachable —
// not tear.
func TestFailpointCommitPublish(t *testing.T) {
	defer failpoint.Reset()
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{A: 1})
	h := d.Register()

	if err := failpoint.Enable("commit-publish=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	r := catchPanic(func() {
		h.Execute(func(th *Thread[payload]) bool {
			c, ok := th.TryLock(o)
			if !ok {
				return false
			}
			c.A = 42
			return true
		})
	})
	failpoint.Reset()
	if !failpoint.IsInjected(r) {
		t.Fatalf("expected injected panic, got %v", r)
	}
	if h.InCS() || h.pin.localTS.Load() != 0 {
		t.Fatal("critical section leaked")
	}
	if o.pending.Load() != nil {
		t.Fatal("object left locked after completed commit")
	}
	h2 := d.Register()
	h2.Execute(func(th *Thread[payload]) bool {
		if got := th.Deref(o).A; got != 42 {
			t.Errorf("commit torn by panic: Deref = %d, want 42", got)
		}
		return true
	})
	s := d.Stats()
	if s.Commits != 1 || s.PanicAborts != 0 {
		t.Fatalf("commits=%d panicAborts=%d, want 1/0 (commit completed, not aborted)", s.Commits, s.PanicAborts)
	}
	if err := d.CheckObject(o); err != nil {
		t.Fatal(err)
	}
}

// TestFailpointAllocCapacity injects a panic on allocSlot's
// capacity-blocked path (log full behind a pinned reader) and checks the
// clean abort.
func TestFailpointAllocCapacity(t *testing.T) {
	defer failpoint.Reset()
	opts := DefaultOptions()
	opts.LogSlots = 8
	opts.StallThreshold = -1
	d := newTestDomain(t, opts)
	var objs [8]*Object[payload]
	for i := range objs {
		objs[i] = NewObject(payload{A: i})
	}
	pin := d.Register()
	writer := d.Register()

	pin.ReadLock()           // pins the watermark: nothing commits before this is reclaimable
	for i := 0; i < 6; i++ { // highSlots = 0.75*8 = 6: fill the log exactly
		i := i
		writer.Execute(func(th *Thread[payload]) bool {
			c, ok := th.TryLock(objs[i])
			if !ok {
				return false
			}
			c.B = 1
			return true
		})
	}

	if err := failpoint.Enable("alloc-capacity=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	r := catchPanic(func() {
		writer.Execute(func(th *Thread[payload]) bool {
			_, ok := th.TryLock(objs[6])
			return ok
		})
	})
	failpoint.Reset()
	if !failpoint.IsInjected(r) {
		t.Fatalf("expected injected panic, got %v", r)
	}
	if writer.InCS() || writer.pin.localTS.Load() != 0 {
		t.Fatal("critical section leaked")
	}
	if objs[6].pending.Load() != nil {
		t.Fatal("object locked despite failed allocation")
	}

	pin.ReadUnlock()
	// With the reader gone the log drains and the same write succeeds.
	writer.Execute(func(th *Thread[payload]) bool {
		c, ok := th.TryLock(objs[6])
		if !ok {
			return false
		}
		c.B = 2
		return true
	})
}

// TestFailpointWriteback injects a panic inside the write-back barrier
// window in single-collector mode: the detector must recover (counted in
// DetectorRecoveries), release the sentinel, and complete the write-back
// once the fault is cleared.
func TestFailpointWriteback(t *testing.T) {
	defer failpoint.Reset()
	opts := DefaultOptions()
	opts.GCMode = GCSingleCollector
	opts.GPInterval = time.Millisecond
	d := newTestDomain(t, opts)
	o := NewObject(payload{A: 1})
	h := d.Register()
	// Armed before the commit: the detector may write the copy back
	// within one GPInterval of it, and a fault armed after that would
	// never fire.
	if err := failpoint.Enable("writeback=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	h.Execute(func(th *Thread[payload]) bool {
		c, ok := th.TryLock(o)
		if !ok {
			return false
		}
		c.A = 9
		return true
	})
	eventually(t, 5*time.Second, func() bool {
		return d.Stats().DetectorRecoveries >= 1
	}, "detector never hit the write-back fault")
	failpoint.Reset()

	// Fault cleared: the detector finishes the write-back (chain pruned
	// to the master) and the value survives intact. A sentinel leaked by
	// the faulted attempt would fail every later write-back's CAS, so
	// completion is the check that the unwind released it; reading the
	// pending word while still armed would race the detector's next
	// (briefly sentinel-holding) attempt.
	eventually(t, 5*time.Second, func() bool {
		return o.copy.Load() == nil && o.pending.Load() == nil
	}, "write-back never completed after fault cleared (sentinel leaked?)")
	if o.master.A != 9 {
		t.Fatalf("master = %d after write-back, want 9", o.master.A)
	}
	if err := d.CheckObject(o); err != nil {
		t.Fatal(err)
	}
}

// TestFailpointDetectorScan panics the detector pass itself repeatedly;
// the goroutine must survive and the domain must keep working once the
// fault is cleared.
func TestFailpointDetectorScan(t *testing.T) {
	defer failpoint.Reset()
	opts := DefaultOptions()
	opts.GPInterval = time.Millisecond
	d := newTestDomain(t, opts)
	if err := failpoint.Enable("detector-scan=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	eventually(t, 5*time.Second, func() bool {
		return d.Stats().DetectorRecoveries >= 3
	}, "detector did not survive repeated scan panics")
	failpoint.Reset()

	o := NewObject(payload{A: 0})
	h := d.Register()
	h.Execute(func(th *Thread[payload]) bool {
		c, ok := th.TryLock(o)
		if !ok {
			return false
		}
		c.A = 5
		return true
	})
	before := d.Watermark()
	eventually(t, 2*time.Second, func() bool {
		return d.refreshWatermark() > before
	}, "watermark stuck after detector recovered")
}

// TestCommitHeaderReuseWithoutDetector pins that a commit allocates
// nothing without help from the detector goroutine: with every detector
// pass panicking before it publishes a watermark, a warm commit loop
// allocates nothing, neither a header nor a log segment. A write set's
// header is one of its versions' commit words, so it comes with the log
// slot. The log is small enough that the warm-up crosses its capacity
// trigger, whose GC pass refreshes the watermark itself, so segments
// are reused from then on; LogSegmentAllocs says so exactly, where
// AllocsPerRun's rounded-down mean would miss one segment per 64
// commits.
func TestCommitHeaderReuseWithoutDetector(t *testing.T) {
	defer failpoint.Reset()
	if err := failpoint.Enable("detector-scan=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.LogSlots = 256
	d := newTestDomain(t, opts)
	o := NewObject(payload{})
	h := d.Register()
	defer h.Unregister()
	i := 0
	commit := func() {
		h.ReadLock()
		if c, ok := h.TryLock(o); ok {
			c.A = i
		}
		h.ReadUnlock()
		i++
	}
	for range 1000 {
		commit()
	}
	segs := d.Stats().LogSegmentAllocs
	if a := testing.AllocsPerRun(1000, commit); a != 0 {
		t.Fatalf("%v allocations per commit with the detector down, want 0", a)
	}
	if got := d.Stats().LogSegmentAllocs; got != segs {
		t.Fatalf("1000 warm commits with the detector down allocated %d log segments, want 0", got-segs)
	}
}

// TestWatermarkStallDetection pins a reader and waits for the detector to
// declare a stall naming it, then releases the reader and waits for the
// episode to clear.
func TestWatermarkStallDetection(t *testing.T) {
	stalls := make(chan StallInfo, 16)
	opts := DefaultOptions()
	opts.GPInterval = time.Millisecond
	opts.StallThreshold = 3
	opts.OnStall = func(si StallInfo) {
		select {
		case stalls <- si:
		default:
		}
	}
	d := newTestDomain(t, opts)
	reader := d.Register()
	reader.ReadLock() // deliberately never unlocked (until the end)

	eventually(t, 5*time.Second, func() bool {
		return d.Stats().StallEvents >= 1
	}, "stall never declared for a pinned reader")

	si, ok := d.Stalled()
	if !ok {
		t.Fatal("Stalled() reports no active stall")
	}
	if si.ThreadID != reader.ID() {
		t.Fatalf("stall blames thread %d, want %d", si.ThreadID, reader.ID())
	}
	if si.EntryTS == 0 || si.EntryTS != reader.pin.localTS.Load() {
		t.Fatalf("stall EntryTS %d does not match the pin %d", si.EntryTS, reader.pin.localTS.Load())
	}
	if s := d.Stats(); s.StalledFor <= 0 {
		t.Fatalf("StalledFor = %v during active stall", s.StalledFor)
	}
	select {
	case cb := <-stalls:
		if cb.ThreadID != reader.ID() || cb.BlockedWriter != -1 {
			t.Fatalf("OnStall got %+v", cb)
		}
	default:
		t.Fatal("OnStall callback never invoked")
	}

	reader.ReadUnlock()
	eventually(t, 5*time.Second, func() bool {
		_, active := d.Stalled()
		return !active
	}, "stall episode did not clear after the reader exited")
	if s := d.Stats(); s.StalledFor != 0 {
		t.Fatalf("StalledFor = %v after episode cleared", s.StalledFor)
	}
}

// TestStallReportFromBlockedWriter starves a writer behind a pinned
// reader until its log fills; the writer's allocSlot give-up must
// attribute the failure to the stall episode (StallReports, OnStall with
// BlockedWriter set) instead of spinning blind.
func TestStallReportFromBlockedWriter(t *testing.T) {
	stalls := make(chan StallInfo, 64)
	opts := DefaultOptions()
	opts.LogSlots = 8
	opts.GPInterval = time.Millisecond
	opts.StallThreshold = 3
	opts.OnStall = func(si StallInfo) {
		select {
		case stalls <- si:
		default:
		}
	}
	d := newTestDomain(t, opts)
	var objs [8]*Object[payload]
	for i := range objs {
		objs[i] = NewObject(payload{A: i})
	}
	reader := d.Register()
	writer := d.Register()
	reader.ReadLock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 7; i++ { // 6 commits fill the log; the 7th starves
			i := i
			writer.Execute(func(th *Thread[payload]) bool {
				c, ok := th.TryLock(objs[i])
				if !ok {
					return false
				}
				c.B = 1
				return true
			})
		}
	}()

	deadline := time.After(10 * time.Second)
	var got StallInfo
waitReport:
	for {
		select {
		case si := <-stalls:
			if si.BlockedWriter == writer.ID() {
				got = si
				break waitReport
			}
		case <-deadline:
			t.Fatal("blocked writer never reported the stall")
		}
	}
	if got.ThreadID != reader.ID() {
		t.Fatalf("writer report blames thread %d, want reader %d", got.ThreadID, reader.ID())
	}

	reader.ReadUnlock() // unblocks reclamation; the starved write completes
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("writer still starved after the reader exited")
	}
	s := d.Stats()
	if s.StallReports < 1 {
		t.Fatalf("StallReports = %d, want >= 1", s.StallReports)
	}
	if s.LogFails < 1 {
		t.Fatalf("LogFails = %d, want >= 1 (allocSlot gave up)", s.LogFails)
	}
}

// leakHandle registers a handle, optionally leaves it pinned inside a
// critical section, and drops it without Unregister. Kept out of line so
// no reference survives in the caller's frame.
func leakHandle(d *Domain[payload], o *Object[payload], pinned bool) int {
	h := d.Register()
	h.Execute(func(th *Thread[payload]) bool {
		c, ok := th.TryLock(o)
		if !ok {
			return false
		}
		c.A = 2
		return true
	})
	if pinned {
		h.ReadLock()
	}
	return h.ID()
}

// TestHandleLeakQuiescent drops a quiescent registered handle: the leak
// guard must flag it, prune its scan entry, and preserve its counters in
// the departed aggregate.
func TestHandleLeakQuiescent(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	o := NewObject(payload{A: 1})
	leakHandle(d, o, false)

	eventually(t, 10*time.Second, func() bool {
		runtime.GC()
		return d.Stats().HandleLeaks >= 1
	}, "leak guard never fired for a dropped handle")
	eventually(t, 10*time.Second, func() bool {
		return len(*d.threads.Load()) == 0
	}, "quiescent leaked entry not pruned from the scan list")

	// The leaked handle's commit survives into the departed aggregate,
	// and its published version stays readable.
	if s := d.Stats(); s.Commits < 1 {
		t.Fatalf("departed commits lost: %d", s.Commits)
	}
	h := d.Register()
	h.ReadLock()
	if got := h.Deref(o).A; got != 2 {
		t.Fatalf("version written by collected handle lost: %d", got)
	}
	h.ReadUnlock()
	if err := d.CheckObject(o); err != nil {
		t.Fatal(err)
	}
}

// TestHandleLeakPinned drops a handle mid-critical-section: the entry
// must be retained (its pin keeps holding the watermark — safety over
// liveness) and the stall detector must name it.
func TestHandleLeakPinned(t *testing.T) {
	opts := DefaultOptions()
	opts.GPInterval = time.Millisecond
	opts.StallThreshold = 3
	d := newTestDomain(t, opts)
	o := NewObject(payload{A: 1})
	id := leakHandle(d, o, true)

	eventually(t, 10*time.Second, func() bool {
		runtime.GC()
		return d.Stats().HandleLeaks >= 1
	}, "leak guard never fired for a pinned handle")

	var entry *threadEntry[payload]
	for i := range *d.threads.Load() {
		e := &(*d.threads.Load())[i]
		if e.id == id {
			entry = e
		}
	}
	if entry == nil {
		t.Fatal("pinned leaked entry pruned from the scan list (watermark unprotected)")
	}
	if !entry.leaked {
		t.Fatal("retained entry not marked leaked")
	}
	if entry.pin.localTS.Load() == 0 {
		t.Fatal("leaked pin lost its timestamp")
	}

	// The watermark must stay put below the leaked pin...
	w1 := d.refreshWatermark()
	time.Sleep(20 * time.Millisecond)
	if w2 := d.refreshWatermark(); w2 != w1 {
		t.Fatalf("watermark advanced past a leaked pinned reader: %d -> %d", w1, w2)
	}
	// ...and the stall detector names the culprit id.
	eventually(t, 5*time.Second, func() bool {
		si, ok := d.Stalled()
		return ok && si.ThreadID == id
	}, "stall detector never blamed the leaked handle")
}

// TestRegisterAfterClose covers the ordered-shutdown contract: Close is
// idempotent, and Register afterwards panics with a clear message instead
// of returning a detector-less handle.
func TestRegisterAfterClose(t *testing.T) {
	d := NewDomain[payload](DefaultOptions())
	h := d.Register()
	h.Unregister()
	d.Close()
	d.Close() // idempotent
	if !d.Closed() {
		t.Fatal("Closed() false after Close")
	}
	r := catchPanic(func() { d.Register() })
	msg, ok := r.(string)
	if !ok || !strings.Contains(msg, "closed Domain") {
		t.Fatalf("Register after Close: got %v, want closed-Domain panic", r)
	}
}

// TestCloseConcurrentRegister races Close against a churn of
// Register/Unregister goroutines: the closed transition must serialize
// with registration (no handle slips out after Close wins), and nothing
// deadlocks.
func TestCloseConcurrentRegister(t *testing.T) {
	d := NewDomain[payload](DefaultOptions())
	var wg sync.WaitGroup
	var stop atomic.Bool
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				func() {
					defer func() { recover() }() // Register may panic post-Close
					h := d.Register()
					h.ReadLock()
					h.ReadUnlock()
					h.Unregister()
				}()
			}
		}()
	}
	time.Sleep(5 * time.Millisecond)
	d.Close()
	stop.Store(true)
	wg.Wait()
	r := catchPanic(func() { d.Register() })
	if r == nil {
		t.Fatal("Register did not panic after concurrent Close")
	}
}

// TestFaultyConservation is the in-process fault-injection torture: four
// workers transfer between accounts while every failpoint fires
// periodically. Injected panics are swallowed at the worker (commit-side
// panics still commit; all others roll back atomically), so the account
// total must be conserved exactly.
func TestFaultyConservation(t *testing.T) {
	defer failpoint.Reset()
	opts := DefaultOptions()
	opts.LogSlots = 256
	opts.GPInterval = time.Millisecond
	d := newTestDomain(t, opts)

	const nAccounts = 16
	const initial = 1000
	var accounts [nAccounts]*Object[payload]
	for i := range accounts {
		accounts[i] = NewObject(payload{A: initial})
	}

	spec := "readlock-pin=panic/211,trylock-cas=panic/193,commit-publish=panic/197," +
		"alloc-capacity=panic/7,writeback=panic/19,detector-scan=panic/11"
	if err := failpoint.Enable(spec, 42); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := d.Register()
			defer h.Unregister()
			for i := 0; i < 400; i++ {
				from := (w*97 + i*31) % nAccounts
				to := (from + 1 + (i*13)%(nAccounts-1)) % nAccounts
				func() {
					defer func() {
						if r := recover(); r != nil && !failpoint.IsInjected(r) {
							panic(r) // only injected faults are expected
						}
					}()
					h.Execute(func(th *Thread[payload]) bool {
						src, ok := th.TryLock(accounts[from])
						if !ok {
							return false
						}
						dst, ok := th.TryLock(accounts[to])
						if !ok {
							return false
						}
						src.A--
						dst.A++
						return true
					})
				}()
			}
		}(w)
	}
	wg.Wait()
	fired := failpoint.TotalFired()
	failpoint.Reset()

	if fired == 0 {
		t.Fatal("no faults fired; the torture exercised nothing")
	}
	h := d.Register()
	h.ReadLock()
	sum := 0
	for _, a := range accounts {
		sum += h.Deref(a).A
	}
	h.ReadUnlock()
	if sum != nAccounts*initial {
		t.Fatalf("conservation violated under faults: sum %d, want %d", sum, nAccounts*initial)
	}
	for i, a := range accounts {
		if err := d.CheckObject(a); err != nil {
			t.Fatalf("account %d: %v", i, err)
		}
	}
}
