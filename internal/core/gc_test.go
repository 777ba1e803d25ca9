package core

import (
	"testing"
	"time"
	"unsafe"

	"mvrlu/internal/failpoint"
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

// TestVersionHeaderSize is the counted cost of a log slot past its
// payload: the bytes every version spends on its commit word, header
// and chain links, timestamps, owner and flags. A store's slot is this
// header plus its node (kvstore's TestObjectSize, index's TestNodeSize).
// It is measured against a real payload, as TestObjectSize measures
// object headers: Go pads a struct whose last field has size zero.
func TestVersionHeaderSize(t *testing.T) {
	const want = 72
	if got := unsafe.Sizeof(version[payload]{}) - unsafe.Sizeof(payload{}); got != want {
		t.Errorf("version header is %d B, want %d", got, want)
	}
}

// TestLogSegments pins the segmented log's growth rule: a writer holds
// the segments its reclamation lag needs, grows to the LogSlots ceiling
// only behind a pinned snapshot — where the capacity path then blocks
// as with a fixed log — and reuses what it holds once reclamation
// resumes. The detector is down and the test steps reclamation itself,
// so every watermark is one it publishes and every count is exact.
func TestLogSegments(t *testing.T) {
	for _, c := range []struct {
		name  string
		slots int
		mode  GCMode
	}{
		{"default", 4096, GCConcurrent},
		{"single-collector", 4096, GCSingleCollector},
		{"slots100", 100, GCConcurrent},
		{"slots48", 48, GCConcurrent},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer failpoint.Reset()
			if err := failpoint.Enable("detector-scan=panic/1", 1); err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.LogSlots = c.slots
			opts.GCMode = c.mode
			d := newTestDomain(t, opts)
			h := d.Register()
			defer h.Unregister()
			objs := make([]*Object[payload], 8)
			for i := range objs {
				objs[i] = NewObject(payload{})
			}
			n := 0
			last := make([]int, len(objs))
			commit := func() {
				h.ReadLock()
				cp, ok := h.TryLock(objs[n%len(objs)])
				if !ok {
					h.Abort()
					t.Fatalf("TryLock failed at commit %d", n)
				}
				cp.A = n
				h.ReadUnlock()
				last[n%len(objs)] = n
				n++
				d.refreshWatermark()
				h.collect()
			}
			segs := func() uint64 { return d.Stats().LogSegmentAllocs }
			high := h.highSlots
			ceiling := (high+logSegSlots-1)/logSegSlots + 1 // segments the live span can touch

			// (a) A steady writer settles, then allocates nothing.
			for range 10000 {
				commit()
			}
			steady := segs()
			if steady == 0 || steady > 3 {
				t.Fatalf("a stepped writer holds %d segments, want 1..3", steady)
			}
			if a := testing.AllocsPerRun(1000, commit); a != 0 {
				t.Fatalf("%v allocations per stepped commit, want 0", a)
			}
			if got := segs(); got != steady {
				t.Fatalf("steady commits allocated %d more segments", got-steady)
			}

			r := d.Register()
			defer r.Unregister()

			// A version in a segment's last slot, held by a pinned
			// reader, stops the tail there: its segment must not be
			// handed out again while the head runs two segments past.
			if high > 3*logSegSlots {
				for h.headC%logSegSlots != logSegSlots-1 {
					commit()
				}
				cold := NewObject(payload{})
				h.ReadLock()
				cp, _ := h.TryLock(cold)
				cp.A = -1
				h.ReadUnlock()
				r.ReadLock()
				held := r.Deref(cold)
				for range 3 * logSegSlots {
					commit()
				}
				got := held.A
				r.ReadUnlock()
				if got != -1 {
					t.Fatalf("a pinned reader's version in a segment's last slot reads %d after the head moved on, want -1", got)
				}
				d.refreshWatermark()
				h.collect()
			}

			// (b) A pinned reader holds the whole log back: it grows
			// to the ceiling and no further, and the writer then blocks
			// and gives up, as with a fixed log.
			r.ReadLock()
			before := d.Stats()
			fails := 0
			for fails == 0 {
				h.ReadLock()
				cp, ok := h.TryLock(objs[n%len(objs)])
				if !ok {
					h.Abort()
					fails++
					continue
				}
				cp.A = n
				h.ReadUnlock()
				last[n%len(objs)] = n
				n++
			}
			s := d.Stats()
			if occ := uint64(h.LogOccupancy()); occ != high {
				t.Fatalf("log occupancy %d at the first failure, want the high watermark %d", occ, high)
			}
			if s.CapacityBlocks == before.CapacityBlocks || s.LogFails == before.LogFails {
				t.Fatalf("capacity blocks %d → %d, log fails %d → %d: the writer never blocked",
					before.CapacityBlocks, s.CapacityBlocks, before.LogFails, s.LogFails)
			}
			if got, want := s.LogSegmentAllocs, (high+logSegSlots-1)/logSegSlots; got < want || got > ceiling {
				t.Fatalf("%d segments behind a pinned reader, want %d..%d", got, want, ceiling)
			}
			grown := s.LogSegmentAllocs
			t.Logf("%d segments steady, %d behind a pinned reader (ceiling %d)", steady, grown, ceiling)

			// After the unpin the writer reuses what it holds. One step
			// first: in single-collector mode only a collector frees a
			// full log.
			r.ReadUnlock()
			d.refreshWatermark()
			h.collect()
			for range 10000 {
				commit()
			}
			if got := segs(); got != grown {
				t.Fatalf("10000 commits after the unpin allocated %d segments", got-grown)
			}
			h.ReadLock()
			for i, o := range objs {
				if got, want := h.Deref(o).A, last[i]; got != want {
					t.Fatalf("object %d reads %d, want its last write %d", i, got, want)
				}
			}
			h.ReadUnlock()
		})
	}
}
