package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestWatermarkMonotoneUnderChurn is the regression test for watermark
// coalescing: under concurrent refreshers and ReadLock/ReadUnlock churn
// the published watermark must stay monotone and must never exceed the
// local timestamp of any thread inside a critical section (the
// invariant that makes slot reuse safe — a watermark past an active
// reader's snapshot would let its versions be reclaimed under it). Run
// it under -race: the coalescing fast path reads wmScanAt/watermark
// concurrently with scan publishes.
func TestWatermarkMonotoneUnderChurn(t *testing.T) {
	opts := DefaultOptions()
	opts.GPInterval = 50 * time.Microsecond
	opts.LowCapacity = 0.01 // GC triggers (and thus refreshes) constantly
	d := NewDomain[payload](opts)
	defer d.Close()

	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		fail atomic.Pointer[string]
	)
	report := func(msg string) { fail.CompareAndSwap(nil, &msg) }

	// Monotonicity: both the broadcast value and refreshWatermark's
	// return value must never move backwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last uint64
		for !stop.Load() {
			w := d.Watermark()
			if w < last {
				report("broadcast watermark moved backwards")
				return
			}
			last = w
			if r := d.refreshWatermark(); r < last {
				report("refreshWatermark returned a value below the broadcast")
				return
			}
			runtime.Gosched()
		}
	}()

	// Dedicated refresh stampede: concurrent full-refresh requests must
	// coalesce through the in-flight flag without breaking monotonicity.
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				w := d.refreshWatermark()
				if w < last {
					report("refreshWatermark not monotone across calls")
					return
				}
				last = w
			}
		}()
	}

	// Churning readers and writers: inside a critical section the
	// broadcast watermark must never exceed this thread's snapshot
	// timestamp.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(writer bool) {
			defer wg.Done()
			h := d.Register()
			o := NewObject(payload{})
			for j := 0; !stop.Load(); j++ {
				h.ReadLock()
				if w := d.Watermark(); w > h.ts {
					report("watermark exceeds an active reader's local timestamp")
					h.ReadUnlock()
					return
				}
				if writer {
					if c, ok := h.TryLock(o); ok {
						c.A = j
					}
				}
				if w := d.Watermark(); w > h.ts {
					report("watermark advanced past an in-CS reader")
					h.ReadUnlock()
					return
				}
				h.ReadUnlock()
			}
		}(i%2 == 0)
	}

	time.Sleep(200 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if msg := fail.Load(); msg != nil {
		t.Fatal(*msg)
	}

	// The coalescing must actually have engaged: with hair-trigger GC
	// the triggers vastly outnumber the full scans.
	s := d.Stats()
	if s.WatermarkCoalesced == 0 {
		t.Fatalf("no coalesced refreshes recorded (scans=%d)", s.WatermarkScans)
	}
	if s.WatermarkScans == 0 {
		t.Fatal("no full scans recorded; the watermark cannot have advanced")
	}
}

// TestHandleMigration pins down the documented handle contract: a Thread
// may move between goroutines as long as its use does not overlap, with
// the hand-off providing the happens-before edge (here: an unbuffered
// channel). The race detector blesses the field layout — plain
// owner-only fields and padded detector-read atomics — under exactly
// this pattern.
func TestHandleMigration(t *testing.T) {
	d := NewDefaultDomain[payload]()
	defer d.Close()
	h := d.Register()
	o := NewObject(payload{A: 1})

	const rounds = 400
	side := make(chan *Thread[payload])
	back := make(chan *Thread[payload])
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			th := <-side
			th.ReadLock()
			if c, ok := th.TryLock(o); ok {
				c.A++
			}
			th.ReadUnlock()
			back <- th
		}
	}()
	for i := 0; i < rounds; i++ {
		h.ReadLock()
		_ = h.Deref(o).A
		h.ReadUnlock()
		side <- h
		h = <-back
	}
	<-done

	h.ReadLock()
	got := h.Deref(o).A
	h.ReadUnlock()
	if got != 1+rounds {
		t.Fatalf("lost updates across hand-offs: got %d, want %d", got, 1+rounds)
	}
}

// TestLazyLogAllocation checks that read-only handles never allocate
// their version log, and that the first write installs it.
func TestLazyLogAllocation(t *testing.T) {
	d := NewDefaultDomain[payload]()
	defer d.Close()
	o := NewObject(payload{A: 5})

	r := d.Register()
	for i := 0; i < 64; i++ {
		r.ReadLock()
		if got := r.Deref(o).A; got != 5 {
			t.Fatalf("Deref = %d, want 5", got)
		}
		r.ReadUnlock()
	}
	if r.segs != nil {
		t.Fatal("read-only handle allocated a version log")
	}

	w := d.Register()
	w.ReadLock()
	if c, ok := w.TryLock(o); ok {
		c.A = 6
	}
	w.ReadUnlock()
	if w.segs == nil {
		t.Fatal("writing handle did not allocate its version log")
	}
}
