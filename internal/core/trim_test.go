package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
	"weak"

	"mvrlu/internal/failpoint"
)

// gcModes are the two reclamation modes every log-trim test runs in.
var gcModes = []struct {
	name string
	mode GCMode
}{{"concurrent", GCConcurrent}, {"single-collector", GCSingleCollector}}

// trimFixture is a domain with the detector held down (every pass
// panics before it publishes a watermark), a writer h and a reader r,
// and a writer log grown behind r's pinned snapshot to about segs
// segments. r has left again; nothing has been reclaimed yet.
type trimFixture struct {
	d    *Domain[payload]
	h, r *Thread[payload]
	objs []*Object[payload]
	last []int
}

func newTrimFixture(t *testing.T, mode GCMode, segs int) *trimFixture {
	t.Helper()
	t.Cleanup(failpoint.Reset)
	if err := failpoint.Enable("detector-scan=panic/1", 1); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.GCMode = mode
	f := &trimFixture{d: newTestDomain(t, opts)}
	f.h, f.r = f.d.Register(), f.d.Register()
	t.Cleanup(f.h.Unregister)
	t.Cleanup(f.r.Unregister)
	f.objs = make([]*Object[payload], 50)
	f.last = make([]int, len(f.objs))
	for i := range f.objs {
		f.objs[i] = NewObject(payload{A: -1})
	}
	f.r.ReadLock()
	for i := range segs * logSegSlots {
		f.write(t, i)
	}
	f.r.ReadUnlock()
	if got := f.h.segHi - f.h.segLo; got < uint64(segs) {
		t.Fatalf("%d segments installed behind a pinned reader, want %d", got, segs)
	}
	return f
}

// write commits v to the next object in turn.
func (f *trimFixture) write(t *testing.T, v int) {
	t.Helper()
	i := v % len(f.objs)
	f.h.ReadLock()
	c, ok := f.h.TryLock(f.objs[i])
	if !ok {
		f.h.Abort()
		t.Fatalf("TryLock failed at write %d", v)
	}
	c.A = v
	f.h.ReadUnlock()
	f.last[i] = v
}

// check requires every object intact and reading its last write.
func (f *trimFixture) check(t *testing.T) {
	t.Helper()
	for i, o := range f.objs {
		if err := f.d.CheckObject(o); err != nil {
			t.Fatalf("object %d: %v", i, err)
		}
	}
	f.r.ReadLock()
	defer f.r.ReadUnlock()
	for i, o := range f.objs {
		if got := f.r.Deref(o).A; got != f.last[i] {
			t.Fatalf("object %d reads %d, want its last write %d", i, got, f.last[i])
		}
	}
}

// held returns the writer's installed and free segments.
func (f *trimFixture) held() (installed, free uint64) {
	f.h.gcMu.Lock()
	defer f.h.gcMu.Unlock()
	return f.h.segHi - f.h.segLo, uint64(len(f.h.segFree))
}

// TestIdleLogTrim: a writer that grew its log behind a pinned snapshot
// and then went idle never reaches a section boundary again, so only
// the detector can give that log back. The test steps the watermark and
// the detector's sweep, on a goroutine of its own as the detector would
// run it; once the writer has been idle for idleTrimTicks sweeps the
// log holds at most one installed segment and the trimmed free list,
// every chain is intact, and the writer goes on from there.
func TestIdleLogTrim(t *testing.T) {
	for _, c := range gcModes {
		t.Run(c.name, func(t *testing.T) {
			f := newTrimFixture(t, c.mode, 30)
			installed, free := f.held()
			t.Logf("idle writer holds %d installed and %d free segments", installed, free)

			for tick := 0; ; tick++ {
				if tick == 4*idleTrimTicks {
					installed, free = f.held()
					t.Fatalf("after %d sweeps the idle log holds %d installed and %d free segments", tick, installed, free)
				}
				f.d.refreshWatermark()
				done := make(chan struct{})
				go func() {
					defer close(done)
					f.d.gp.sweep()
				}()
				<-done
				if f.h.pin.trimmed {
					break
				}
			}
			installed, free = f.held()
			bound := max(1, f.h.segPeak)
			if installed > 1 || free > bound || bound > 1 {
				t.Fatalf("trimmed log holds %d installed and %d free segments (bound %d), want ≤ 1 and ≤ 1",
					installed, free, bound)
			}
			if occ := f.h.LogOccupancy(); occ != 0 {
				t.Fatalf("trimmed log has %d live slots, want 0", occ)
			}
			if got := f.d.Stats().LogSegmentsHeld; got != installed+free {
				t.Fatalf("Stats.LogSegmentsHeld = %d, want %d", got, installed+free)
			}
			f.check(t)

			// The writer resumes on the trimmed log.
			for i := range 3 * logSegSlots {
				f.write(t, 1e6+i)
				f.d.refreshWatermark()
				f.h.collect()
			}
			f.check(t)
		})
	}
}

// TestDroppedSegmentCollectable: a segment reclamation releases and
// the free list then turns away must be left to the runtime, not kept
// reachable through the log's segment ring. Segment 0 is released first
// and dropped when the idle trim cuts the free list to the segment
// released last.
func TestDroppedSegmentCollectable(t *testing.T) {
	for _, c := range gcModes {
		t.Run(c.name, func(t *testing.T) {
			f := newTrimFixture(t, c.mode, 30)
			if f.h.segLo != 0 {
				t.Fatalf("segment %d is the oldest installed, want 0", f.h.segLo)
			}
			slot0 := weak.Make(&f.h.segs[0][0])
			for i := 0; f.h.LogOccupancy() > 0; i++ {
				if i == 100 {
					t.Fatalf("%d live slots after %d GC passes", f.h.LogOccupancy(), i)
				}
				f.d.refreshWatermark()
				f.h.collect()
			}
			if f.h.segLo == 0 {
				t.Fatal("segment 0 was never released")
			}
			if !f.h.trimIdle() {
				t.Fatal("the idle trim gave up on an empty log")
			}
			if _, free := f.held(); free > 1 {
				t.Fatalf("%d free segments after the trim, want ≤ 1", free)
			}
			runtime.GC()
			runtime.GC()
			if slot0.Value() != nil {
				t.Fatal("a dropped segment is still reachable after runtime.GC")
			}
			f.check(t)
		})
	}
}

// TestIdleTrimHandshake pins both sides of the trim's handshake with
// the owner: while park is held, an owner's ReadLock+TryLock waits in
// allocSlot until it is released; and a trim that finds the owner in a
// section changes nothing.
func TestIdleTrimHandshake(t *testing.T) {
	for _, c := range gcModes {
		t.Run(c.name, func(t *testing.T) {
			f := newTrimFixture(t, c.mode, 4)
			h := f.h

			h.pin.park.Store(1)
			var locked atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				h.ReadLock()
				c, ok := h.TryLock(f.objs[0])
				if !ok {
					h.Abort()
					t.Error("TryLock failed once park was released")
					return
				}
				locked.Store(true)
				c.A = 7
				h.ReadUnlock()
			}()
			for h.pin.localTS.Load() == 0 && !locked.Load() {
				runtime.Gosched()
			}
			// The owner is in its section; give its TryLock time to
			// (wrongly) get past park.
			time.Sleep(20 * time.Millisecond)
			early := locked.Load()
			h.pin.park.Store(0)
			<-done
			if early {
				t.Fatal("TryLock allocated a slot while park was held")
			}
			if !locked.Load() {
				t.FailNow()
			}
			f.last[0] = 7

			// A trim against an owner inside a section backs off
			// before it touches anything: first while the log holds
			// reclaimable segments, then once it is empty but for a
			// free list longer than a trim keeps.
			type state struct {
				head, tail, segLo, segHi, segPeak, free, gcRuns uint64
			}
			snap := func() state {
				h.gcMu.Lock()
				defer h.gcMu.Unlock()
				return state{h.pin.head.Load(), h.pin.tail.Load(), h.segLo, h.segHi,
					h.segPeak, uint64(len(h.segFree)), h.stats.gcRuns}
			}
			backsOff := func(when string) {
				t.Helper()
				h.ReadLock()
				defer h.ReadUnlock()
				before := snap()
				trimmed := make(chan bool)
				go func() { trimmed <- h.trimIdle() }()
				if <-trimmed {
					t.Fatalf("%s: a trim against an owner in a section reports the log trimmed", when)
				}
				if after := snap(); after != before {
					t.Fatalf("%s: a trim against an owner in a section changed the log: %+v → %+v", when, before, after)
				}
				if h.pin.park.Load() != 0 {
					t.Fatalf("%s: park still held after the trim backed off", when)
				}
			}
			f.d.refreshWatermark()
			backsOff("live log")
			for i := 0; h.LogOccupancy() > 0; i++ {
				if i == 100 {
					t.Fatalf("%d live slots after %d GC passes", h.LogOccupancy(), i)
				}
				f.d.refreshWatermark()
				h.collect()
			}
			if _, free := f.held(); free < 2 {
				t.Fatalf("%d free segments once the log drained, want ≥ 2", free)
			}
			backsOff("empty log")
			f.check(t)
		})
	}
}

// TestSteadyWriterSegments is the steady-state row: one writer
// committing every microsecond with no reader, under DefaultOptions,
// holds at most 8 segments, installed and free. Reclamation at the
// capacity watermark alone would let the log reach half its ceiling
// (32 segments) first; the GC pass at each segment boundary holds it to
// the writer's reclamation lag.
func TestSteadyWriterSegments(t *testing.T) {
	d := newTestDomain(t, DefaultOptions())
	h := d.Register()
	defer h.Unregister()
	objs := make([]*Object[payload], 16)
	for i := range objs {
		objs[i] = NewObject(payload{})
	}
	const warm, commits = 2000, 20000
	most := uint64(0)
	next := time.Now()
	for i := range warm + commits {
		for time.Now().Before(next) {
		}
		next = time.Now().Add(time.Microsecond)
		h.Execute(func(h *Thread[payload]) bool {
			c, ok := h.TryLock(objs[i%len(objs)])
			if ok {
				c.A = i
			}
			return ok
		})
		if i >= warm && i%logSegSlots == 0 {
			most = max(most, d.Stats().LogSegmentsHeld)
		}
	}
	t.Logf("a paced writer held at most %d segments, %d allocated", most, d.Stats().LogSegmentAllocs)
	if most > 8 {
		t.Fatalf("a paced writer held %d segments at steady state, want ≤ 8", most)
	}
}
