package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mvrlu/internal/failpoint"
)

// TestDynamicLogOversizedWriteSet: with DynamicLog a single critical
// section larger than the log must succeed by growing the log past its
// ceiling instead of panicking.
func TestDynamicLogOversizedWriteSet(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 8
	opts.DynamicLog = true
	d := NewDomain[payload](opts)
	defer d.Close()
	h := d.Register()

	const objects = 64
	objs := make([]*Object[payload], objects)
	for i := range objs {
		objs[i] = NewObject(payload{})
	}
	h.ReadLock()
	for i, o := range objs {
		c, ok := h.TryLock(o)
		if !ok {
			t.Fatalf("TryLock %d failed despite DynamicLog", i)
		}
		c.A = i + 1
	}
	h.ReadUnlock()

	h.ReadLock()
	for i, o := range objs {
		if got := h.Deref(o).A; got != i+1 {
			t.Fatalf("object %d = %d, want %d", i, got, i+1)
		}
	}
	h.ReadUnlock()
	if s := d.Stats(); s.OverflowAllocs == 0 {
		t.Fatal("expected overflow allocations")
	}
}

// TestDynamicLogOverflowHeader: a write set that straddles the log's
// ceiling keeps its header in its last slot, like any other. The set
// here is a version of a in the first slot past the ceiling (taken while
// a pinned reader holds the log full) followed by one of b in the next
// slot (taken once the reader left). The segment holding both is then
// released, which the tail reaches only after a's version was written
// back: CheckObject's header rule must find a clean. The detector is
// down: the test steps reclamation itself.
func TestDynamicLogOverflowHeader(t *testing.T) {
	defer failpoint.Reset()
	if err := failpoint.Enable("detector-scan=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.LogSlots = 16
	opts.DynamicLog = true
	d := newTestDomain(t, opts)
	a, b, z := NewObject(payload{}), NewObject(payload{}), NewObject(payload{})
	h, r := d.Register(), d.Register()
	defer h.Unregister()
	defer r.Unregister()
	write := func(o *Object[payload], v int) {
		t.Helper()
		h.ReadLock()
		c, ok := h.TryLock(o)
		if !ok {
			t.Fatalf("TryLock failed at head %d", h.headC)
		}
		c.A = v
		h.ReadUnlock()
	}

	r.ReadLock()
	for i := 0; uint64(h.LogOccupancy()) < h.highSlots; i++ {
		write(z, i)
	}
	h.ReadLock()
	ca, oka := h.TryLock(a)
	ia := h.headC - 1
	pastCeiling := ia-h.pin.tail.Load() >= h.highSlots
	r.ReadUnlock()
	cb, okb := h.TryLock(b)
	ib := h.headC - 1
	if !oka || !okb {
		t.Fatal("TryLock failed")
	}
	va, vb := a.pending.Load(), b.pending.Load()
	ca.A, cb.A = 1, 2
	h.ReadUnlock()
	if !pastCeiling || h.slot(ia) != va || ib != ia+1 || h.slot(ib) != vb {
		t.Fatalf("a's version in slot %d (past the ceiling: %v), b's in slot %d: want b's in the slot after a's past the ceiling", ia, pastCeiling, ib)
	}
	if va.ws != &vb.commitTS {
		t.Fatal("the set's header is not b's commit word")
	}

	for i := 0; h.segLo <= ib/logSegSlots; i++ {
		if i == 4*logSegSlots {
			t.Fatalf("segment %d was never released", ib/logSegSlots)
		}
		write(b, i)
		d.refreshWatermark()
		h.collect()
	}
	if err := d.CheckObject(a); err != nil {
		t.Fatal(err)
	}
	r.ReadLock()
	got := r.Deref(a).A
	r.ReadUnlock()
	if got != 1 {
		t.Fatalf("a reads %d, want 1", got)
	}
}

// TestDynamicLogGrowth: behind a pinned reader a DynamicLog log grows
// past its ceiling, doubling its segment ring as it fills; once the
// reader leaves and reclamation catches up, the log holds no more
// segments, installed or free, than the ceiling's ring, and every chain
// is intact. The detector is down: the test steps reclamation itself.
func TestDynamicLogGrowth(t *testing.T) {
	for _, c := range []struct {
		name string
		mode GCMode
	}{{"concurrent", GCConcurrent}, {"single-collector", GCSingleCollector}} {
		t.Run(c.name, func(t *testing.T) {
			defer failpoint.Reset()
			if err := failpoint.Enable("detector-scan=panic/1", 1); err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.LogSlots = 128 // a 96-slot ceiling, a ring of 4
			opts.GCMode = c.mode
			opts.DynamicLog = true
			d := newTestDomain(t, opts)
			h, r := d.Register(), d.Register()
			defer h.Unregister()
			defer r.Unregister()
			objs := make([]*Object[payload], 50)
			for i := range objs {
				objs[i] = NewObject(payload{A: -1})
			}
			checkAll := func(when string) {
				t.Helper()
				for i, o := range objs {
					if err := d.CheckObject(o); err != nil {
						t.Fatalf("%s: object %d: %v", when, i, err)
					}
				}
			}
			ring := h.segCap

			r.ReadLock()
			const writes = 3000
			for i := range writes {
				h.ReadLock()
				c, ok := h.TryLock(objs[i%len(objs)])
				if !ok {
					t.Fatalf("TryLock %d failed despite DynamicLog", i)
				}
				c.A = i
				h.ReadUnlock()
			}
			if got := r.Deref(objs[7]).A; got != -1 {
				t.Fatalf("the pinned snapshot reads %d, want -1", got)
			}
			occ, grown := uint64(h.LogOccupancy()), uint64(len(h.segs))
			if occ <= h.highSlots || grown <= ring {
				t.Fatalf("behind a pinned reader: occupancy %d, ring %d; want past the %d-slot ceiling and its ring of %d", occ, grown, h.highSlots, ring)
			}
			checkAll("pinned")
			r.ReadUnlock()

			for i := 0; h.LogOccupancy() > 0; i++ {
				if i == 100 {
					t.Fatalf("occupancy %d after %d GC passes", h.LogOccupancy(), i)
				}
				d.refreshWatermark()
				h.collect()
			}
			held := h.segHi - h.segLo + uint64(len(h.segFree))
			s := d.Stats()
			t.Logf("occupancy %d, ring %d, %d segments held, %d segment allocations", occ, grown, held, s.LogSegmentAllocs)
			if held > ring {
				t.Fatalf("%d segments held once reclamation caught up, want at most the ceiling's ring of %d", held, ring)
			}
			if s.OverflowAllocs == 0 {
				t.Fatal("no version was placed past the ceiling")
			}
			checkAll("reclaimed")
			h.ReadLock()
			for i, o := range objs {
				if got, want := h.Deref(o).A, writes-len(objs)+i; got != want {
					t.Fatalf("object %d reads %d, want its last write %d", i, got, want)
				}
			}
			h.ReadUnlock()
		})
	}
}

// TestDynamicLogAbortRollsBackOverflow: aborting a write set that spilled
// past the log's ceiling must fully unlock and discard.
func TestDynamicLogAbortRollsBackOverflow(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 8
	opts.DynamicLog = true
	d := NewDomain[payload](opts)
	defer d.Close()
	h := d.Register()

	const objects = 32
	objs := make([]*Object[payload], objects)
	for i := range objs {
		objs[i] = NewObject(payload{A: 7})
	}
	h.ReadLock()
	for _, o := range objs {
		c, ok := h.TryLock(o)
		if !ok {
			t.Fatal("lock failed")
		}
		c.A = 0
	}
	h.Abort()

	h.ReadLock()
	for i, o := range objs {
		if got := h.Deref(o).A; got != 7 {
			t.Fatalf("object %d: aborted write visible (%d)", i, got)
		}
		if _, ok := h.TryLock(o); !ok {
			t.Fatalf("object %d still locked after abort", i)
		}
	}
	h.Abort()
}

// TestDynamicLogConcurrentStress runs the bank-transfer invariant with a
// tiny log so overflow is constantly exercised concurrently.
func TestDynamicLogConcurrentStress(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 16
	opts.DynamicLog = true
	d := NewDomain[payload](opts)
	defer d.Close()

	const accounts = 6
	objs := make([]*Object[payload], accounts)
	for i := range objs {
		objs[i] = NewObject(payload{A: 100})
	}
	var stop atomic.Bool
	var bad atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			h := d.Register()
			i := seed
			for !stop.Load() {
				from, to := i%accounts, (i+1+seed)%accounts
				i++
				if from == to {
					continue
				}
				h.Execute(func(h *Thread[payload]) bool {
					cf, ok := h.TryLock(objs[from])
					if !ok {
						return false
					}
					ct, ok := h.TryLock(objs[to])
					if !ok {
						return false
					}
					cf.A--
					ct.A++
					return true
				})
				h.ReadLock()
				sum := 0
				for _, o := range objs {
					sum += h.Deref(o).A
				}
				h.ReadUnlock()
				if sum != accounts*100 {
					bad.Add(1)
				}
			}
		}(g)
	}
	time.Sleep(100 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d inconsistent snapshots under overflow pressure", bad.Load())
	}
}

// TestOrdoWindowAmbiguityAborts: with an injected skew window, a TryLock
// within the window of the newest commit must fail with an ordering
// abort (§3.9) and succeed after the window passes.
func TestOrdoWindowAmbiguityAborts(t *testing.T) {
	opts := DefaultOptions()
	opts.OrdoWindow = uint64(200 * time.Microsecond) // generous on any host
	d := NewDomain[payload](opts)
	defer d.Close()
	h := d.Register()
	o := NewObject(payload{})

	h.ReadLock()
	if c, ok := h.TryLock(o); !ok {
		t.Fatal("initial lock failed")
	} else {
		c.A = 1
	}
	h.ReadUnlock()

	// Immediately relock: local-ts is within the window of the commit.
	h.ReadLock()
	_, ok := h.TryLock(o)
	if ok {
		t.Fatal("TryLock inside the ORDO window should fail as ambiguous")
	}
	h.Abort()

	// After the window elapses the lock must succeed. The ordering rule
	// is local-ts ≥ commit-ts + boundary, and the commit timestamp was
	// itself advanced by the boundary — so wait on the clock until the
	// next ReadLock's timestamp clears the ambiguity margin, rather
	// than on a fixed sleep whose overshoot the margin would ride on.
	// (If GC already wrote the copy back, the relock is trivially fine.)
	if v := o.copy.Load(); v != nil {
		for cts := v.commitTS.Load(); d.Now() < cts+d.boundary; {
			time.Sleep(50 * time.Microsecond)
		}
	}
	h.ReadLock()
	if _, ok := h.TryLock(o); !ok {
		t.Fatal("TryLock after the window should succeed")
	}
	h.ReadUnlock()
	if s := d.Stats(); s.OrderFails == 0 {
		t.Fatal("ambiguity abort not counted")
	}
}

// TestOrdoWindowSnapshotStillConsistent: the skew window delays
// visibility (snapshot isolation allows staleness) but must never tear
// multi-object commits.
func TestOrdoWindowSnapshotStillConsistent(t *testing.T) {
	opts := DefaultOptions()
	opts.OrdoWindow = uint64(50 * time.Microsecond)
	d := NewDomain[payload](opts)
	defer d.Close()

	x, y := NewObject(payload{A: 10}), NewObject(payload{A: -10})
	var stop atomic.Bool
	var bad atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := d.Register()
		for !stop.Load() {
			h.Execute(func(h *Thread[payload]) bool {
				cx, ok := h.TryLock(x)
				if !ok {
					return false
				}
				cy, ok := h.TryLock(y)
				if !ok {
					return false
				}
				cx.A++
				cy.A--
				return true
			})
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := d.Register()
			for !stop.Load() {
				h.ReadLock()
				sum := h.Deref(x).A + h.Deref(y).A
				h.ReadUnlock()
				if sum != 0 {
					bad.Add(1)
				}
			}
		}()
	}
	time.Sleep(80 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if bad.Load() != 0 {
		t.Fatalf("%d torn snapshots under skew window", bad.Load())
	}
}

// TestWriteSkewAllowedUnderSI demonstrates §2.4: two transactions with
// overlapping reads and disjoint writes can both commit (write skew),
// because MV-RLU provides snapshot isolation, not serializability.
func TestWriteSkewAllowedUnderSI(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	x, y := NewObject(payload{A: 1}), NewObject(payload{A: 1})
	h1, h2 := d.Register(), d.Register()

	// Both sections read x+y = 2 (> 1) and each zeroes a different
	// object. Under serializability one would have to abort.
	h1.ReadLock()
	h2.ReadLock()
	s1 := h1.Deref(x).A + h1.Deref(y).A
	s2 := h2.Deref(x).A + h2.Deref(y).A
	if s1 != 2 || s2 != 2 {
		t.Fatal("setup broken")
	}
	c1, ok1 := h1.TryLock(x)
	c2, ok2 := h2.TryLock(y)
	if !ok1 || !ok2 {
		t.Fatal("disjoint locks must not conflict")
	}
	c1.A = 0
	c2.A = 0
	h1.ReadUnlock()
	h2.ReadUnlock()

	h1.ReadLock()
	total := h1.Deref(x).A + h1.Deref(y).A
	h1.ReadUnlock()
	if total != 0 {
		t.Fatalf("expected write skew to commit both (total 0), got %d", total)
	}
}

// TestTryLockConstPreventsWriteSkew is §2.4/§7's remedy: locking the
// read-only object with TryLockConst turns the skew into a write-write
// conflict, so one of the two sections aborts.
func TestTryLockConstPreventsWriteSkew(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	x, y := NewObject(payload{A: 1}), NewObject(payload{A: 1})
	h1, h2 := d.Register(), d.Register()

	h1.ReadLock()
	h2.ReadLock()
	// Each section const-locks what it reads and write-locks what it
	// changes: h1 reads y, writes x; h2 reads x, writes y.
	ok1 := h1.TryLockConst(y)
	if ok1 {
		if c, ok := h1.TryLock(x); ok {
			c.A = 0
		} else {
			ok1 = false
		}
	}
	ok2 := h2.TryLockConst(x)
	if ok2 {
		if c, ok := h2.TryLock(y); ok {
			c.A = 0
		} else {
			ok2 = false
		}
	}
	if ok1 && ok2 {
		t.Fatal("both skewed sections acquired all locks; const locks did not conflict")
	}
	if ok1 {
		h1.ReadUnlock()
	} else {
		h1.Abort()
	}
	if ok2 {
		h2.ReadUnlock()
	} else {
		h2.Abort()
	}

	h1.ReadLock()
	total := h1.Deref(x).A + h1.Deref(y).A
	h1.ReadUnlock()
	if total < 1 {
		t.Fatalf("invariant x+y>=1 broken (%d): write skew committed", total)
	}
}
