package core

import (
	"context"
	"runtime"
	"runtime/trace"
	"unsafe"

	"mvrlu/internal/check"
	"mvrlu/internal/failpoint"
	"mvrlu/internal/obs"
)

// allocSlot claims the next slot at the log head (§3.2: per-thread
// circular log, sequential and prefetcher friendly). When occupancy
// reaches the high capacity watermark the writer must wait for
// reclamation (§3.7); unlike the paper's implementation — which blocks,
// and notes the liveness hazard — allocSlot gives up after a bounded
// number of attempts and returns nil, making TryLock fail so the caller
// aborts. Aborting releases this thread's local timestamp, which is what
// lets the watermark (and therefore reclamation) advance when this thread
// itself is the oldest reader. When the blockage is another thread's —
// a stalled reader pinning the watermark — giving up cannot clear it;
// reportAllocStall then surfaces the stall context (who pins, since
// when) instead of leaving the writer to spin blind through the abort
// loop. Under Options.DynamicLog it takes the next slot past the
// ceiling instead of giving up (see installSeg).
func (t *Thread[T]) allocSlot() *version[T] {
	if t.segs == nil {
		t.initLog()
	}
	for attempt := 0; t.headC-t.pin.tail.Load() >= t.highSlots; attempt++ {
		if !t.d.opts.DynamicLog && len(t.wset) != 0 && t.headC-t.wsStart >= t.highSlots {
			panic("mvrlu: write set exceeds log capacity; increase Options.LogSlots")
		}
		t.stats.capacityBlocks++
		// Capacity-blocked path: nothing is held here beyond the write
		// set itself, which the caller's abort rolls back, so an
		// injected panic unwinds cleanly through tryLock.
		failpoint.Inject(failpoint.AllocSlotCapacity)
		if t.d.opts.GCMode == GCConcurrent {
			// Blocked on capacity: force a real refresh (coalesced
			// across concurrent blockers by the in-flight flag, but
			// not freshness-gated — a starved writer must observe
			// other threads' exits promptly, not a broadcast up to a
			// GP interval old). No detector kick: the refresh and
			// collection happen right here. The unconditional yield
			// below matters as much as the refresh — on an
			// oversubscribed host the thread pinning the watermark is
			// likely descheduled, and yielding is what lets it exit.
			t.d.refreshWatermark()
			t.collect()
		} else {
			// Single-collector mode: only the detector reclaims, so
			// it must be kicked.
			t.d.gp.request()
		}
		if attempt >= 128 {
			if t.d.opts.DynamicLog {
				// Dynamic-log extension (§5's future work): grow
				// the log past its ceiling instead of failing the
				// TryLock. The slot stays in the FIFO, so the tail
				// rule reclaims it like any other.
				t.stats.overflowAllocs++
				break
			}
			t.reportAllocStall()
			return nil
		}
		runtime.Gosched()
	}
	if t.needsGCMu {
		t.gcMu.Lock()
	}
	if t.headC/logSegSlots == t.segHi {
		t.installSeg()
	}
	v := t.slot(t.headC)
	v.reset()
	t.headC++
	t.pin.head.Store(t.headC)
	if t.needsGCMu {
		t.gcMu.Unlock()
	}
	return v
}

// installSeg installs the segment the head enters for the first time.
// It takes a segment reclamation released; if none is left it first runs
// one GC pass over this log at the broadcast watermark (in
// single-collector mode it kicks the collector instead), and allocates a
// new segment only if that released none. So a log grows only while
// reclamation holds back more than its segments, and below its ceiling
// never past the ring that highSlots sizes. A DynamicLog log that grows
// past the ceiling fills that ring; installSeg then doubles it, and
// collectPass later drops the segments the ceiling's ring cannot hold.
// The pass reads the broadcast watermark and takes no scan of its own,
// so a boundary adds no O(threads) work; the capacity path refreshes
// once the log is actually full. Called by allocSlot, under gcMu in
// single-collector mode.
func (t *Thread[T]) installSeg() {
	if len(t.segFree) == 0 && t.headC != t.pin.tail.Load() {
		if t.d.opts.GCMode == GCConcurrent {
			t.collect()
		} else {
			t.d.gp.request()
		}
	}
	var seg []version[T]
	if n := len(t.segFree); n > 0 {
		seg = t.segFree[n-1]
		t.segFree = t.segFree[:n-1]
	} else {
		seg = t.newSeg()
	}
	if t.segHi-t.segLo > t.segMask {
		segs := make([][]version[T], 2*len(t.segs))
		mask := uint64(len(segs) - 1)
		for n := t.segLo; n < t.segHi; n++ {
			segs[n&mask] = t.segs[n&t.segMask]
		}
		t.segs, t.segMask = segs, mask
	}
	t.segs[t.segHi&t.segMask] = seg
	t.segHi++
}

// reportAllocStall runs when allocSlot exhausts its attempts: the log is
// full and reclamation did not free a single slot. It kicks the detector
// so stall detection runs promptly, and — if a stall episode is already
// declared and this thread has not yet reported against it — hands the
// blocked writer's context to Options.OnStall, identifying both the
// pinning reader and the writer it is starving. One report per episode
// per writer: the abort/retry loop hits this path repeatedly while the
// stall lasts.
func (t *Thread[T]) reportAllocStall() {
	d := t.d
	d.gp.request()
	since := d.stallSince.Load()
	if since == 0 || since == t.lastStallReport {
		return
	}
	t.lastStallReport = since
	t.stats.stallReports++
	if cb := d.opts.OnStall; cb != nil {
		info, ok := d.Stalled()
		if ok {
			info.BlockedWriter = t.id
			cb(info)
		}
	}
}

// popSlot rewinds the head over a just-allocated slot whose TryLock
// failed to install.
func (t *Thread[T]) popSlot() {
	if t.needsGCMu {
		t.gcMu.Lock()
	}
	t.headC--
	t.pin.head.Store(t.headC)
	if t.needsGCMu {
		t.gcMu.Unlock()
	}
}

// maybeGC runs at critical-section boundaries (ReadLock, ReadUnlock,
// Abort — §3.7) and triggers collection of this thread's own log when a
// watermark fires: capacity (log occupancy ≥ low watermark) or
// dereference (too many dereferences walking version chains instead of
// reading masters). This is the autonomous part of the design: the two
// triggers adapt the GC frequency to the workload with no manual tuning.
func (t *Thread[T]) maybeGC() {
	if t.d.opts.GCMode != GCConcurrent {
		return
	}
	size := t.headC - t.pin.tail.Load()
	if size == 0 {
		if t.derefCopy+t.derefMaster > 0 {
			t.resetDerefCounters()
		}
		return
	}
	trigger := t.lowSlots > 0 && size >= t.lowSlots
	if !trigger && t.d.opts.DerefRatio > 0 {
		total := t.derefCopy + t.derefMaster
		if total >= 512 && float64(t.derefCopy) > t.d.opts.DerefRatio*float64(total) {
			trigger = true
			t.stats.derefTriggers++
		}
	}
	if !trigger {
		return
	}
	// Refresh inline — no detector kick. Waking the detector for every
	// trigger cost a channel send plus a goroutine wakeup per boundary,
	// and the refresh it would perform is the one done (or skipped as
	// fresh) right here. The refresh is coalesced under the full
	// freshness window, tightened to 1/16 of it when occupancy nears the
	// blocking watermark: there reclamation must not lag a stale
	// broadcast — or the log runs into allocSlot's blocking path during
	// the next window — but scanning on *every* boundary is pure waste
	// when the watermark is pinned by a straggling reader (then no scan
	// can advance it, and the log is heading into the blocking path
	// regardless; allocSlot forces an uncoalesced refresh once there).
	win := t.d.wmFreshness
	if size >= t.highSlots-(t.highSlots>>2) {
		win >>= 4
	}
	t.refreshWatermark(win)
	t.collect()
	t.resetDerefCounters()
}

// refreshWatermark is the thread-side, GC-trigger entry point: while the
// broadcast watermark is within the given freshness window of "now" it
// is returned as-is — no O(threads) scan, no shared-line CAS, and no
// clock read (t.ts, the thread's own critical-section entry timestamp,
// is the "now" proxy) — keeping the per-operation cost of the capacity
// and dereference triggers independent of the number of registered
// threads (§3.7's decoupling, preserved under frequent triggers). For a
// thread iterating critical sections t.ts lags real time by at most one
// CS; an idle thread's stale t.ts just forces a scan, the
// pre-coalescing behavior.
func (t *Thread[T]) refreshWatermark(window uint64) uint64 {
	if w, ok := t.d.coalescedWatermark(t.ts, window); ok {
		t.stats.wmCoalesced++
		return w
	}
	return t.d.refreshWatermark()
}

// collect is one garbage-collection pass over this thread's own log
// (§3.7). Phase 1 advances the tail over the prefix the watermark proves
// invisible (the circular log reclaims strictly in order, §5). Phase 2
// scans the remainder and writes back every chain head older than the
// watermark to its master, pruning the chains (Lemma 2) — so the *next*
// pass can reclaim them all (Lemma 3). Writing back only the
// tail-blocking version would drain the log one slot per pass and starve
// writers under workloads with many cold, singly-written objects.
func (t *Thread[T]) collect() {
	if !obs.Enabled() && !trace.IsEnabled() && !obs.TraceEnabled() {
		t.collectPass()
		return
	}
	var reg *trace.Region
	if trace.IsEnabled() {
		reg = trace.StartRegion(context.Background(), "mvrlu.gc")
	}
	start := obs.Now()
	n := t.collectPass()
	dur := obs.Now() - start
	if obs.Enabled() {
		t.hists[HistGCPass].Observe(uint64(dur))
		t.hists[HistGCReclaimed].Observe(n)
	}
	if obs.TraceEnabled() {
		obs.RecordEvent(obs.EvGCPass, t.d.evTag.Load(), n, uint64(dur))
	}
	if reg != nil {
		reg.End()
	}
}

// collectPass is collect's body, returning the number of slots
// reclaimed; collect itself is only the telemetry/trace gate.
func (t *Thread[T]) collectPass() uint64 {
	t.gcMu.Lock()
	defer t.gcMu.Unlock()
	if t.segs == nil {
		return 0 // no write yet: the log is not even allocated
	}
	w := t.d.watermark.Load()
	head := t.pin.head.Load()
	tail := t.pin.tail.Load()
	chk := t.d.chk
	n := uint64(0)
	for tail+n < head {
		v := t.slot(tail + n)
		if !t.reclaimable(v, w) {
			break
		}
		if chk != nil {
			// Recorded before the tail advance releases the slot for
			// reuse, so an observation of this version ticketed after
			// this event is a genuine use-after-reclaim. The global
			// stream is used because in single-collector mode this
			// pass runs on the detector goroutine, not the owner.
			var fl uint8
			if v.constLock {
				fl |= check.FlagConst
			}
			if v.freeing {
				fl |= check.FlagFree
			}
			pts := v.prunedTS.Load()
			if pts != 0 {
				fl |= check.FlagPruned
			}
			chk.Reclaim(chk.ObjID(unsafe.Pointer(v.obj)), v.commitTS.Load(),
				v.supersededTS.Load(), pts, w, fl)
		}
		n++
	}
	if n > 0 {
		t.pin.tail.Store(tail + n)
		t.stats.reclaimed += n
		// Release every segment the tail has wholly passed, reset: the
		// tail rule above already proved its versions unreachable, and
		// a free segment may wait long for reuse, so it must not keep
		// their payloads (and whatever those point to) alive. Segments
		// a DynamicLog log grew past its ceiling go to the runtime:
		// the log holds at most the ceiling's ring, free or installed.
		for t.segLo < (tail+n)/logSegSlots {
			seg := t.segs[t.segLo&t.segMask]
			for i := range seg {
				v := &seg[i]
				if chk != nil {
					// Before the reset, and after the slot's reclaim
					// event: a reset with none before it names a slot
					// released ahead of the tail.
					chk.SlotReset(chk.ObjID(unsafe.Pointer(v.obj)), v.commitTS.Load())
				}
				v.reset()
			}
			t.segLo++
			if uint64(len(t.segFree))+t.segHi-t.segLo < t.segCap {
				t.segFree = append(t.segFree, seg)
			}
		}
	}
	// Bound the write-back scan so a boundary-time GC pass costs O(1)
	// amortized rather than O(log occupancy); the budget is large enough
	// that reclamation outruns allocation (one slot is allocated per
	// TryLock, up to wbBudget are made reclaimable per pass). Skip the
	// scan entirely while the watermark has not advanced: only commits
	// older than the watermark are eligible, and those were already
	// attempted at this watermark — rescanning would make a pinned
	// watermark (e.g. a descheduled reader) cost O(budget) per boundary.
	if w > t.lastWbW {
		t.lastWbW = w
		const wbBudget = 256
		limit := head
		if tail+n+wbBudget < limit {
			limit = tail + n + wbBudget
		}
		for i := tail + n; i < limit; i++ {
			v := t.slot(i)
			cts := v.commitTS.Load()
			if cts >= uncommitted {
				break // uncommitted: current write set reached
			}
			if cts < w && !v.constLock && !v.freeing &&
				v.supersededTS.Load() == 0 && v.prunedTS.Load() == 0 &&
				v.obj.copy.Load() == v {
				t.writeback(v)
			}
		}
	}
	t.stats.gcRuns++
	return n
}

// resetDerefCounters folds the dereference-watermark counters into the
// lifetime totals and restarts the sampling window. Owner-only: the
// counters are plain fields of the owner's hot path, so the single
// collector must never touch them (collect itself is safe to share —
// everything it reads is atomic or gcMu-guarded).
func (t *Thread[T]) resetDerefCounters() {
	t.stats.derefs += t.derefMaster + t.derefCopy
	t.derefMaster, t.derefCopy = 0, 0
}

// reclaimable decides whether a version slot can be reused under
// watermark w, encoding Lemmas 1–3 of §4.2:
//
//   - superseded before w: every reader that could select it (or traverse
//     through it) began before its successor committed, hence before w,
//     and has exited (Lemma 1);
//   - pruned before w: every reader that could have loaded the chain
//     containing it began before the prune, hence before w (Lemma 3);
//   - const-locked: never published, dead at commit;
//   - final version of a freed object committed before w: the free's
//     unlink committed with it, so no reader that began after w can reach
//     the object at all.
//
// A still-newest version older than w is written back to its master and
// pruned now (Lemma 2) and reclaimed by a later pass.
func (t *Thread[T]) reclaimable(v *version[T], w uint64) bool {
	cts := v.commitTS.Load()
	if cts >= uncommitted {
		return false // uncommitted: current write set reached
	}
	if v.constLock {
		return true
	}
	if v.freeing && cts < w {
		return true
	}
	if s := v.supersededTS.Load(); s != 0 && s < w {
		return true
	}
	if p := v.prunedTS.Load(); p != 0 && p < w {
		return true
	}
	return false
}

// writeback copies a chain head (one grace period old, Lemma 2) into its
// master and prunes the chain. The pending word doubles as the paper's
// reclamation barrier: holding the sentinel excludes both concurrent
// write-backs of the same master and writer commits that would push a new
// head mid-write-back.
func (t *Thread[T]) writeback(v *version[T]) {
	o := v.obj
	if !o.pending.CompareAndSwap(nil, t.d.sentinel) {
		return // locked by a writer or another write-back; retry later
	}
	if failpoint.Enabled() {
		t.injectWriteback(o)
	}
	if o.copy.Load() == v {
		o.master = v.data
		o.copy.Store(nil)
		// Stamp the prune after unlinking: any reader that can
		// still reach v loaded the chain before this timestamp.
		pts := t.d.clk.Now() + t.d.boundary
		v.prunedTS.Store(pts)
		t.stats.writebacks++
		if chk := t.d.chk; chk != nil {
			chk.Writeback(chk.ObjID(unsafe.Pointer(o)), v.commitTS.Load(), pts)
		}
	}
	o.pending.Store(nil)
}

// injectWriteback fires the failpoint inside the write-back barrier
// window, with the sentinel holding the object's pending word. A panic
// here would leave the object locked forever; release the sentinel on
// the unwind — the write-back simply has not happened, which is always
// legal — before letting the panic continue.
func (t *Thread[T]) injectWriteback(o *Object[T]) {
	defer func() {
		if r := recover(); r != nil {
			o.pending.Store(nil)
			panic(r)
		}
	}()
	failpoint.Inject(failpoint.Writeback)
}
