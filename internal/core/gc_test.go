package core

import (
	"testing"
	"time"
)

// TestColdHeadDrain is the regression test for the write-back scan: a
// workload that writes many objects exactly once fills the log with
// versions that are all chain heads (never superseded). A GC that only
// writes back the tail-blocking head drains one slot per pass and starves
// the writer; the bounded phase-2 scan must keep up.
func TestColdHeadDrain(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 64
	d := NewDomain[payload](opts)
	defer d.Close()
	h := d.Register()

	const objects = 2000
	fails := 0
	for i := 0; i < objects; i++ {
		o := NewObject(payload{A: i})
		retried := false
		for {
			h.ReadLock()
			c, ok := h.TryLock(o)
			if !ok {
				h.Abort()
				if retried {
					fails++
					break
				}
				retried = true
				time.Sleep(50 * time.Microsecond)
				continue
			}
			c.B = i * 2
			h.ReadUnlock()
			break
		}
	}
	if fails > objects/100 {
		t.Fatalf("%d/%d cold-head writes failed twice: log not draining", fails, objects)
	}
	s := d.Stats()
	if s.Writebacks < uint64(objects)/2 {
		t.Fatalf("expected heavy write-back activity, got %d", s.Writebacks)
	}
}

// TestWritebackScanBounded: occupancy after a cold-head burst must fall
// once the thread goes through critical-section boundaries, proving
// phase 2 wrote heads back en masse and phase 1 reclaimed them.
func TestWritebackScanBounded(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 256
	d := NewDomain[payload](opts)
	defer d.Close()
	h := d.Register()

	for i := 0; i < 200; i++ {
		o := NewObject(payload{A: i})
		h.ReadLock()
		if c, ok := h.TryLock(o); ok {
			c.B = 1
		}
		h.ReadUnlock()
	}
	// Boundary GCs fire while occupancy exceeds the low capacity
	// watermark (128 of 256 slots): first passes write heads back,
	// later ones reclaim, until the log drops below the watermark.
	deadline := time.Now().Add(2 * time.Second)
	low := int(float64(opts.LogSlots) * opts.LowCapacity)
	for h.LogOccupancy() >= low && time.Now().Before(deadline) {
		h.ReadLock()
		h.ReadUnlock()
		time.Sleep(100 * time.Microsecond)
	}
	if occ := h.LogOccupancy(); occ >= low {
		t.Fatalf("log did not drain below the low watermark: %d live slots", occ)
	}
}

// TestDerefWatermarkPrunesChains: under a read-heavy workload on an
// object with a version chain, the dereference watermark must eventually
// trigger write-back so readers return to reading masters.
func TestDerefWatermarkPrunesChains(t *testing.T) {
	opts := DefaultOptions()
	opts.LogSlots = 1024
	opts.LowCapacity = 0 // isolate the deref trigger
	d := NewDomain[payload](opts)
	defer d.Close()
	h := d.Register()
	o := NewObject(payload{})

	h.ReadLock()
	if c, ok := h.TryLock(o); ok {
		c.A = 1
	}
	h.ReadUnlock()

	// Hammer derefs; every one hits the copy until GC writes it back.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		h.ReadLock()
		for i := 0; i < 700; i++ {
			_ = h.Deref(o).A
		}
		h.ReadUnlock()
		if d.ChainLen(o) == 0 {
			break
		}
	}
	if d.ChainLen(o) != 0 {
		t.Fatal("dereference watermark never pruned the chain")
	}
	h.ReadLock()
	if got := h.Deref(o).A; got != 1 {
		t.Fatalf("master value wrong after writeback: %d", got)
	}
	h.ReadUnlock()
	if s := d.Stats(); s.DerefTriggers == 0 {
		t.Fatal("deref watermark never fired")
	}
}
