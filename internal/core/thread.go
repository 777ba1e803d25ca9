package core

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/trace"
	"sync"
	"sync/atomic"
	"unsafe"

	"mvrlu/internal/check"
	"mvrlu/internal/clock"
	"mvrlu/internal/failpoint"
	"mvrlu/internal/obs"
)

// Thread is a per-goroutine MV-RLU handle: a local timestamp, a circular
// log of copy objects, and the current write set. Handles are not safe
// for concurrent use by multiple goroutines (each goroutine registers its
// own), but a handle may migrate between goroutines as long as uses do
// not overlap.
//
// The handle must stay reachable while its critical section is open: the
// domain's scan list references handles weakly (see threadEntry in
// domain.go), so a handle dropped while registered is flagged as a leak
// by the runtime-cleanup guard. Its pin state lives in a separately
// allocated pinState that the registry holds strongly — a leaked reader
// keeps pinning the watermark (safety first) and the stall detector
// names it, rather than the engine silently reclaiming versions the
// leaked section may still be reading.
type Thread[T any] struct {
	// Owner-only fast-path state (plain fields, no sharing).
	d    *Domain[T]
	id   int
	ts   uint64 // owner's cache of pin.localTS
	inCS bool
	// needsGCMu: in GCSingleCollector mode the collector goroutine
	// scans this log, so the owner's slot initialization and rollback
	// also take gcMu.
	needsGCMu bool
	// lastCommitTS is the commit timestamp finishCommit last published —
	// the value a WAL hook stamps onto the commit records of the write
	// set Execute just committed (owner-only, read via LastCommitTS).
	lastCommitTS uint64

	// pin is the detector-facing state — localTS, head, tail — split
	// out of the handle so the watermark scan can keep reading it after
	// the handle itself is dropped and collected (see pinState).
	pin *pinState

	// stats is shared with the registry entry so a departed thread's
	// counters survive into Domain.Stats.
	stats *threadStats

	// hists are the per-thread telemetry histograms (see metrics.go),
	// shared with the registry entry like stats; recorded only while
	// obs.Enabled. csStart/csRegion carry the open critical section's
	// start time and trace region from ReadLock to whichever exit path
	// closes the section (ReadUnlock, Abort, or a panic unwind).
	hists    *threadHists
	csStart  int64
	csRegion *trace.Region

	// crec is this thread's history-checker stream, nil unless the
	// domain was built with Options.Check. Every record site tests the
	// pointer first (an owner-local load) and only then the package
	// enable gate, so the common nil case costs no atomics at all.
	crec *check.ThreadRec

	// The version log is a FIFO of segments of logSegSlots slots:
	// counter c lives at slot c%logSegSlots of segment number
	// c/logSegSlots, which is held in the ring segs at index
	// (c/logSegSlots)&segMask. Segment numbers [segLo, segHi) are
	// installed; reclamation moves each segment the tail has wholly
	// passed to segFree (segLo++), and allocSlot installs the next one
	// from there (segHi++, see installSeg). segCap is the ring size the
	// ceiling needs, the most segments a log keeps once reclamation
	// catches up. headC is the owner's cached head counter.
	segs         [][]version[T]
	segFree      [][]version[T]
	segMask      uint64
	segCap       uint64
	segLo, segHi uint64
	headC        uint64

	// wset is the current critical section's write set; its header is
	// its last version's commit word (see header).
	wset    []*version[T]
	wsStart uint64 // head counter at write-set begin

	// Dereference-watermark accounting (owner-only).
	derefMaster uint64
	derefCopy   uint64
	// lastWbW is the watermark at which the write-back scan last ran.
	lastWbW uint64
	// lastStallReport is the stall episode (Domain.stallSince value)
	// this thread last reported from allocSlot, one OnStall call per
	// episode per blocked writer.
	lastStallReport int64

	highSlots uint64
	lowSlots  uint64

	gcMu sync.Mutex // serializes reclamation (owner vs single collector)

	// csChainMax is the longest chain walk of any Deref in the open
	// section, kept while telemetry (metrics or tracing) is on and
	// reported once at the exit, so a Deref pays no clock read and no
	// shared write. Last in the struct so that every field above keeps
	// its offset, and the telemetry-off hot path its cache-line layout.
	csChainMax uint64
}

// pinState is the slice of a thread the grace-period machinery reads:
// localTS is the critical-section entry timestamp, 0 when quiescent,
// published for the detector's watermark scan; head and tail bound the
// live log region (the owner allocates at head, reclamation advances
// tail; in single-collector mode the collector reads head and writes
// tail). It is a separate allocation, strongly held by the registry
// entry, for two reasons:
//
//   - cache-line isolation (carried over from the padded-atomics layout):
//     detector scans of localTS must not contend with the owner's
//     per-operation writes to ts/headC/counters, and a collector
//     advancing tail must not invalidate the line the owner writes on
//     every slot allocation (§3.7's decoupling);
//   - failure isolation: if the handle is dropped while inside a
//     critical section, the pin must remain visible to the watermark
//     scan even after the runtime collects the Thread, or reclamation
//     would advance over versions the leaked section can still read.
type pinState struct {
	_       [64]byte
	localTS atomic.Uint64
	_       [56]byte
	head    atomic.Uint64
	_       [56]byte
	tail    atomic.Uint64
	_       [56]byte
}

// logSegSlots is the size of one version-log segment: the unit by which
// a writer's log grows to what its reclamation lag holds back, up to the
// Options.LogSlots ceiling.
const logSegSlots = 64

func newThread[T any](d *Domain[T], id int) *Thread[T] {
	t := &Thread[T]{
		d:         d,
		id:        id,
		needsGCMu: d.opts.GCMode == GCSingleCollector,
		pin:       &pinState{},
		stats:     &threadStats{},
		hists:     &threadHists{},
	}
	t.highSlots = uint64(d.opts.HighCapacity * float64(d.opts.LogSlots))
	if t.highSlots == 0 || t.highSlots > uint64(d.opts.LogSlots) {
		t.highSlots = uint64(d.opts.LogSlots)
	}
	t.lowSlots = uint64(d.opts.LowCapacity * float64(d.opts.LogSlots))
	// The live span [tail, head] holds at most highSlots slots and
	// straddles at most one more segment; a power-of-two ring of that
	// many entries never gives two installed segments one index. (A
	// DynamicLog log past the ceiling doubles the ring, see installSeg.)
	t.segCap = 1 << bits.Len64((t.highSlots+logSegSlots-1)/logSegSlots)
	t.segMask = t.segCap - 1
	return t
}

// initLog allocates the log's segment ring on first write. Registration
// stays allocation-light this way: read-only handles never pay for a
// log, so wide registered fleets (the paper evaluates up to 448 threads)
// cost the watermark scan one cache line each, not LogSlots versions.
// Segments are installed as the head enters them (installSeg). Under
// single-collector mode the collector reads the ring, so it is published
// under gcMu.
func (t *Thread[T]) initLog() {
	segs := make([][]version[T], t.segMask+1)
	if t.needsGCMu {
		t.gcMu.Lock()
		defer t.gcMu.Unlock()
	}
	t.segs = segs
	t.segFree = make([][]version[T], 0, len(segs))
}

// newSeg allocates one log segment.
func (t *Thread[T]) newSeg() []version[T] {
	seg := make([]version[T], logSegSlots)
	for i := range seg {
		seg[i].commitTS.Reset()
		seg[i].owner = t.id
	}
	t.stats.logSegAllocs++
	return seg
}

// slot returns the log slot of head counter c.
func (t *Thread[T]) slot(c uint64) *version[T] {
	return &t.segs[(c/logSegSlots)&t.segMask][c%logSegSlots]
}

// ReadLock enters an MV-RLU critical section (§2.1): it records the local
// timestamp that fixes this section's snapshot.
func (t *Thread[T]) ReadLock() {
	if t.inCS {
		panic("mvrlu: nested ReadLock")
	}
	t.maybeGC()
	// Publish a conservative pin BEFORE reading the clock. Without it
	// there is a window in which the grace-period detector sees this
	// thread as quiescent and advances the watermark past the timestamp
	// about to be taken — violating the "every active reader's local-ts
	// ≥ watermark" invariant that makes slot reuse safe. With the pin,
	// a detector scan either misses it (then its watermark derives from
	// a clock read that precedes ours) or sees it and cannot advance.
	t.pin.localTS.Store(1)
	if failpoint.Enabled() {
		t.injectReadLockPin()
	}
	ts := t.d.clk.Now()
	t.ts = ts
	t.pin.localTS.Store(ts)
	t.inCS = true
	if t.crec != nil {
		// Stamped after the pin and entry timestamp are published, so
		// the recorded order never claims a pin earlier than the scan
		// machinery could have seen it.
		t.crec.Begin(ts)
	}
	if obs.Enabled() {
		if t.d.hwClock {
			t.csStart = int64(ts - 1)
		} else {
			t.csStart = obs.Now()
		}
	}
	if trace.IsEnabled() {
		t.csRegion = trace.StartRegion(context.Background(), "mvrlu.cs")
	}
}

// obsEndCS closes the critical section's telemetry: record the section
// duration and its longest chain walk, ratchet the domain's chain
// high-water mark, and end the trace region. Called from every section
// exit — ReadUnlock, Abort, and the panic unwinds — guarded by the
// callers on the plain csStart/csRegion/csChainMax fields so the
// disabled path pays three local loads, no atomics.
func (t *Thread[T]) obsEndCS() {
	if t.csRegion != nil {
		t.csRegion.End()
		t.csRegion = nil
	}
	if t.csStart != 0 {
		t.hists[HistCS].Observe(uint64(obs.Now() - t.csStart))
		t.hists[HistCSChainMax].Observe(t.csChainMax)
		t.csStart = 0
	}
	if t.csChainMax != 0 {
		t.d.noteChainLen(t.csChainMax)
		t.csChainMax = 0
	}
}

// injectReadLockPin fires the pin-window failpoint. A panic here leaves
// the conservative pin published with no critical section to release it
// — the exact leak that wedges the watermark — so the pin is dropped on
// the unwind before the panic continues: the caller recovers a handle
// that is cleanly outside any critical section.
func (t *Thread[T]) injectReadLockPin() {
	defer func() {
		if r := recover(); r != nil {
			t.pin.localTS.Store(0)
			panic(r)
		}
	}()
	failpoint.Inject(failpoint.ReadLockPin)
}

// ReadUnlock leaves the critical section, committing the write set if one
// exists (§3.5).
func (t *Thread[T]) ReadUnlock() {
	if !t.inCS {
		panic("mvrlu: ReadUnlock outside critical section")
	}
	if len(t.wset) > 0 {
		if t.csStart != 0 {
			start := obs.Now()
			t.commit()
			t.hists[HistCommit].Observe(uint64(obs.Now() - start))
		} else {
			t.commit()
		}
	}
	t.inCS = false
	if t.crec != nil {
		// Stamped while the pin is still held: an exit ticket drawn
		// after a watermark broadcast's then proves the scan had to
		// count this section.
		t.crec.End()
	}
	t.pin.localTS.Store(0)
	if t.csStart != 0 || t.csRegion != nil || t.csChainMax != 0 {
		t.obsEndCS()
	}
	t.maybeGC()
}

// Abort discards the critical section: it unlocks every object in the
// write set and rewinds the log tail over the write set's slots (§3.6).
// Call it after a failed TryLock, then re-enter with ReadLock.
func (t *Thread[T]) Abort() {
	if !t.inCS {
		panic("mvrlu: Abort outside critical section")
	}
	t.rollback()
	t.inCS = false
	if t.crec != nil {
		t.crec.Abort() // before the pin release, like ReadUnlock's End
	}
	t.pin.localTS.Store(0)
	t.stats.aborts++
	if t.csStart != 0 || t.csRegion != nil || t.csChainMax != 0 {
		t.obsEndCS()
	}
	t.maybeGC()
}

// Execute runs fn inside a critical section, retrying on abort. fn should
// return false when a TryLock failed (Execute aborts and re-enters) and
// true to commit. It is the idiomatic retry loop of the RLU model.
//
// Execute is panic-safe: if fn panics, the write set is rolled back —
// every locked object unlocked, the log head rewound — the local
// timestamp unpinned, and the panic re-raised. One misbehaving
// transaction therefore cannot wedge the domain (§3.7's liveness
// assumption, enforced rather than assumed): callers that recover the
// panic keep a usable handle and other threads keep committing.
func (t *Thread[T]) Execute(fn func(*Thread[T]) bool) {
	for {
		t.ReadLock()
		if t.protectedApply(fn) {
			return
		}
		t.Abort()
		// Yield before retrying: an immediate retry on few cores can
		// starve the conflicting lock holder.
		runtime.Gosched()
	}
}

// protectedApply runs fn and commits when it succeeds, converting a
// panic anywhere under fn into an abort before letting it continue to
// the caller.
func (t *Thread[T]) protectedApply(fn func(*Thread[T]) bool) (done bool) {
	defer func() {
		if r := recover(); r == nil {
			return
		} else {
			// A commit-side failpoint panic completed the commit and
			// left the critical section before unwinding (see commit);
			// recovery is only needed while the section is still open.
			if t.inCS {
				t.rollback()
				t.inCS = false
				if t.crec != nil {
					t.crec.Abort()
				}
				t.pin.localTS.Store(0)
				t.stats.panicAborts++
			}
			t.obsEndCS()
			panic(r)
		}
	}()
	if fn(t) {
		t.ReadUnlock()
		return true
	}
	return false
}

// Deref returns the payload version of o that belongs to this critical
// section's snapshot (§3.3): the newest committed version with commit-ts
// ≤ local-ts, or the master when no such version exists. The returned
// pointer is valid for reading until ReadUnlock/Abort; treat it as
// read-only (use TryLock to write). Deref(nil) returns nil so pointer
// chains terminate naturally.
func (t *Thread[T]) Deref(o *Object[T]) *T {
	if t.crec != nil {
		return t.derefChecked(o)
	}
	if obs.Enabled() || obs.TraceEnabled() {
		return t.derefObserved(o)
	}
	p, _ := t.derefWalk(o)
	return p
}

// derefObserved is Deref with telemetry: it keeps the section's longest
// chain walk in csChainMax, which obsEndCS reports once per section —
// into HistCSChainMax under metrics, and into the domain's chain-length
// high-water mark (the trace event timeline) either way. The step count
// is recovered from the owner-written chainSteps counter rather than
// re-counting, so the walk itself stays identical to the untimed path,
// and nothing here reads the clock or writes shared memory: a Deref is
// timed only as part of its section (HistCS).
func (t *Thread[T]) derefObserved(o *Object[T]) *T {
	steps := t.stats.chainSteps
	p, _ := t.derefWalk(o)
	if walked := t.stats.chainSteps - steps; walked > t.csChainMax {
		t.csChainMax = walked
	}
	return p
}

// derefWalk is Deref's body; Deref itself is only the telemetry gate, so
// the disabled path costs one atomic load and a branch on top of this.
// Beside the payload it returns the chain version it selected (nil for
// the master and for the section's own pending copy), which is all
// derefChecked needs to describe the observation — one extra register
// move, so the recording path shares this walk instead of copying it.
func (t *Thread[T]) derefWalk(o *Object[T]) (*T, *version[T]) {
	if o == nil {
		return nil, nil
	}
	// Read-your-own-writes (the paper's mvrlu_deref self-locked case):
	// an object this section already locked must be read through its
	// uncommitted copy, or a multi-step body (the ordered index's
	// transactions) would traverse its own splices inconsistently. A
	// pending copy this thread owns is this section's: commit and abort
	// release every lock a set took, and thread ids are never reused.
	// The wset guard keeps the read-only hot path at a single atomic
	// load — a section that locked nothing cannot own a pending copy.
	if len(t.wset) != 0 {
		if p := o.pending.Load(); p != nil && p.owner == t.id {
			t.derefCopy++
			return &p.data, nil
		}
	}
	v := o.copy.Load()
	if v == nil {
		// Fast path (§5): the master is the only version. Keeping
		// this to one pointer load and one local counter is what the
		// paper's master/copy address-space split buys; here the
		// types differ, so the check is the nil chain head.
		t.derefMaster++
		return &o.master, nil
	}
	ts := t.ts
	bd := t.d.boundary
	for v != nil {
		t.stats.chainSteps++
		// resolveTS folded inline: the common hop — a committed
		// version — costs one atomic load with no call or write-set
		// header chase; only a version caught mid-commit (timestamp
		// not yet copied in) consults its header, and stamps a sealed
		// one itself (see clock.CommitWord).
		cts := v.commitTS.Load()
		if cts >= uncommitted {
			h := v.ws
			if cts = h.Load(); cts == clock.Committing {
				cts = h.Stamp(t.d.drawCommitTS())
			}
		}
		// Window-conservative pick (§3.9): a commit timestamp inside
		// the ORDO uncertainty window of the entry timestamp is
		// ambiguous — the commit may have happened after the reader
		// entered — so it must not be selected, mirroring the
		// writer-side `ts < hts+boundary` ordering check in tryLock.
		// The two-part form avoids uint64 underflow when ts < cts;
		// with a zero boundary it reduces to the plain `cts <= ts`.
		if cts <= ts && (mutateAmbiguousDeref || ts-cts >= bd) {
			t.derefCopy++
			return &v.data, v
		}
		v = v.older
	}
	t.derefMaster++
	return &o.master, nil
}

// derefChecked is Deref's history-recording path: derefWalk bracketed by
// the ticket (drawn before the walk's first load; see DerefTicket) and
// one event carrying the object id, the observed commit timestamp (0 for
// the master and the own copy), and the hops walked — recovered from the
// chainSteps delta, as derefObserved does. A selected version's
// timestamp was already final when the walk compared it, so re-resolving
// it here reads the same value.
func (t *Thread[T]) derefChecked(o *Object[T]) *T {
	if o == nil {
		return nil
	}
	oid := t.crec.ObjID(unsafe.Pointer(o))
	tk := t.crec.DerefTicket()
	steps := t.stats.chainSteps
	p, v := t.derefWalk(o)
	var cts uint64
	var flag uint8
	switch {
	case v != nil:
		cts = v.resolveTS()
	case p == &o.master:
		flag = check.FlagFromMaster
	default:
		flag = check.FlagOwn
	}
	t.crec.DerefAt(tk, oid, cts, t.stats.chainSteps-steps, flag)
	return p
}

// TryLock locks o for writing and returns a private copy of its newest
// payload (§3.4). On failure the caller must Abort the critical section
// and retry. Locking the same object twice in one critical section
// returns the same copy.
func (t *Thread[T]) TryLock(o *Object[T]) (*T, bool) {
	v, ok := t.tryLock(o, false)
	if !ok {
		return nil, false
	}
	return &v.data, true
}

// TryLockConst locks o without intending to modify it (§2.1). It
// generates the write-write conflicts that let callers rule out write
// skew (e.g. hand-over-hand locking a predecessor), but the copy is never
// published, so it is cheaper than TryLock at commit and GC time.
func (t *Thread[T]) TryLockConst(o *Object[T]) bool {
	_, ok := t.tryLock(o, true)
	return ok
}

func (t *Thread[T]) tryLock(o *Object[T], constLock bool) (*version[T], bool) {
	if !obs.Enabled() {
		return t.tryLockWalk(o, constLock)
	}
	start := obs.Now()
	v, ok := t.tryLockWalk(o, constLock)
	t.hists[HistTryLock].Observe(uint64(obs.Now() - start))
	return v, ok
}

// tryLockWalk is tryLock's body; tryLock itself is only the telemetry
// gate (both success and failure latencies are recorded — a lock-fail
// spike under contention is exactly what the histogram is for).
func (t *Thread[T]) tryLockWalk(o *Object[T], constLock bool) (*version[T], bool) {
	if !t.inCS {
		panic("mvrlu: TryLock outside critical section")
	}
	if o == nil {
		return nil, false
	}
	if p := o.pending.Load(); p != nil {
		// Already locked. By us in this critical section: reuse the
		// copy (upgrading a const lock to a real one is allowed —
		// the copy exists either way). A freed object is no conflict.
		if p.owner == t.id {
			if !constLock {
				p.constLock = false
			}
			return p, true
		}
		if p.owner != freedOwner {
			t.stats.lockFails++
		}
		return nil, false
	}

	v := t.allocSlot()
	if v == nil {
		// Log exhausted and reclamation is pinned by our own
		// critical section; fail so the caller aborts, which lets
		// the watermark advance (see allocSlot).
		t.stats.logFails++
		return nil, false
	}
	if len(t.wset) == 0 {
		t.wsStart = t.headC - 1 // the slot just allocated
	}
	v.obj = o
	v.constLock = constLock

	if failpoint.Enabled() {
		t.injectTryLockCAS()
	}

	// Acquire the object lock first (§3.4): only with p-pending held is
	// the chain head stable, so the newest version must be read after
	// this CAS — reading it before would let a concurrent commit slip
	// a newer version in and this copy would silently drop it from the
	// chain (a lost update).
	if !o.pending.CompareAndSwap(nil, v) {
		t.popSlot()
		t.stats.lockFails++
		return nil, false
	}

	// Write-latest-version-only rule plus the ORDO ambiguity check
	// (§3.4, §3.9): local-ts must exceed the newest commit-ts by more
	// than the uncertainty window.
	head := o.copy.Load()
	var src *T
	if head != nil {
		hts := head.resolveTS()
		if t.ts < hts+t.d.boundary {
			o.pending.Store(nil)
			t.popSlot()
			t.stats.orderFails++
			return nil, false
		}
		src = &head.data
		v.older = head
		v.olderTS = hts
	} else {
		src = &o.master
	}
	v.data = *src

	t.wset = append(t.wset, v)
	return v, true
}

// injectTryLockCAS fires the pre-CAS failpoint. A panic here owns an
// allocated slot but no object lock yet; pop the slot on the unwind so
// the log head stays consistent, then let the panic continue — the
// write set's earlier locks are released by Execute's rollback.
func (t *Thread[T]) injectTryLockCAS() {
	defer func() {
		if r := recover(); r != nil {
			t.popSlot()
			panic(r)
		}
	}()
	failpoint.Inject(failpoint.TryLockCAS)
}

// Free frees the object locked by this critical section (§3.8): after the
// commit the object is marked freed and stays locked forever, so no later
// writer can resurrect it. The caller must have unlinked it from the data
// structure in the same critical section (that is what makes it invisible
// to new readers); old snapshots keep reading its versions until the
// grace period expires. Returns false if o is not locked by this thread
// in this critical section, or only const-locked: a TryLockConst copy is
// validation-only and its commit path drops the version without ever
// consulting the freeing flag, so accepting the call here would silently
// discard the free while reporting success. Upgrade with TryLock first.
func (t *Thread[T]) Free(o *Object[T]) bool {
	if !t.inCS || o == nil {
		return false
	}
	p := o.pending.Load()
	if p == nil || p.owner != t.id || p.constLock {
		return false
	}
	p.freeing = true
	return true
}

// commit publishes the write set (§3.5): point every copy at the set's
// header, push pending copies to their chains, publish the write-set
// commit timestamp (linearization point), copy it into the versions,
// mark superseded predecessors for reclamation, and unlock the masters
// (freed masters stay locked).
func (t *Thread[T]) commit() {
	h := t.header()
	for _, v := range t.wset {
		v.ws = h
		if v.constLock {
			continue
		}
		// v.older was fixed at TryLock; holding pending guarantees
		// the chain head has not moved since.
		v.obj.copy.Store(v)
	}
	// Every version is in its chain (see clock.CommitWord).
	h.Seal()
	if failpoint.Enabled() {
		t.injectCommitPublish()
	}
	t.finishCommit()
}

// injectCommitPublish fires the failpoint between publishing the write
// set's copies and duplicating the commit timestamp into them. A panic
// here must not tear the commit: the copies are already reachable from
// their chains (a reader that meets one stamps the sealed header) and
// the masters are still locked, so abandoning the unwind mid-way would
// wedge every object in the set. Instead the commit is finished on the
// unwind — the write set was fully staged and can no longer fail — and
// the section closed, before the panic continues.
func (t *Thread[T]) injectCommitPublish() {
	defer func() {
		if r := recover(); r != nil {
			t.finishCommit()
			t.inCS = false
			if t.crec != nil {
				t.crec.End() // the commit went through: a clean exit
			}
			t.pin.localTS.Store(0)
			t.obsEndCS()
			panic(r)
		}
	}()
	failpoint.Inject(failpoint.CommitPublish)
}

// finishCommit is the back half of commit: draw and publish the commit
// timestamp (the linearization point), copy it into the versions, mark
// superseded predecessors, and unlock the masters. The header is sealed,
// so a reader may have stamped it first; its timestamp then stands.
func (t *Thread[T]) finishCommit() {
	cts := t.header().Stamp(t.d.drawCommitTS())
	t.lastCommitTS = cts
	for _, v := range t.wset {
		v.commitTS.Set(cts)
		if v.constLock {
			// Never published: reusable as soon as the slot
			// reaches the tail.
			v.supersededTS.Store(1)
			v.obj.pending.Store(nil)
			continue
		}
		if v.older != nil {
			v.older.supersededTS.Store(cts)
		}
		if v.freeing {
			// Locked for good by the marker, not by v, whose slot
			// is reused once reclaimed.
			v.obj.pending.Store(t.d.freed)
			continue
		}
		v.obj.pending.Store(nil)
	}
	if t.crec != nil {
		// One event per write-set entry, after the set is fully
		// published (the records are bookkeeping, not part of the
		// commit protocol) and before the set is cleared.
		for _, v := range t.wset {
			var fl uint8
			basedOn := uint64(0)
			if v.constLock {
				fl |= check.FlagConst
			}
			if v.freeing {
				fl |= check.FlagFree
			}
			if v.older != nil {
				basedOn = v.olderTS
			} else {
				fl |= check.FlagFromMaster
			}
			t.crec.Write(t.crec.ObjID(unsafe.Pointer(v.obj)), cts, basedOn, fl)
		}
	}
	t.stats.commits++
	t.wset = t.wset[:0]
}

// header returns the write set's commit word (§3.2): the commitTS word
// of its last version. A reader consults a version's header only after
// it loaded that version's word before the timestamp was copied in, and
// such a reader holds the version unreclaimable until it exits (its
// superseded, pruned or freed timestamp is drawn later). A set's log
// slots are contiguous and the tail passes them in order, so it passes
// the last one only once every version of the set was reclaimable: log
// reclamation frees the header with the set.
func (t *Thread[T]) header() *clock.CommitWord {
	return &t.wset[len(t.wset)-1].commitTS
}

// drawCommitTS draws a commit timestamp. The +1 meets the CommitWord
// precondition: a hardware clock may return the same nanosecond to two
// cores, and the draw must be strictly above a reader's entry.
func (d *Domain[T]) drawCommitTS() uint64 {
	return d.clk.Now() + d.boundary + 1
}

// rollback implements abort (§3.6): unlock write-set objects and rewind
// the log head over their slots.
func (t *Thread[T]) rollback() {
	for i := len(t.wset) - 1; i >= 0; i-- {
		v := t.wset[i]
		if v.obj.pending.Load() == v {
			v.obj.pending.Store(nil)
		}
	}
	if len(t.wset) > 0 {
		if t.needsGCMu {
			t.gcMu.Lock()
		}
		t.headC = t.wsStart
		t.pin.head.Store(t.headC)
		if t.needsGCMu {
			t.gcMu.Unlock()
		}
	}
	t.wset = t.wset[:0]
}

// ID returns the thread's registration index within its domain.
func (t *Thread[T]) ID() int { return t.id }

// LastCommitTS returns the commit timestamp of the owner's most recent
// committed write set — what a durability hook logs as the record
// timestamp right after Execute returns. Owner-only, like every plain
// Thread field; 0 before the first commit.
func (t *Thread[T]) LastCommitTS() uint64 { return t.lastCommitTS }

// SnapshotTS returns the entry timestamp of the open critical section —
// the snapshot every Deref in this section resolves against. Owner-only
// and meaningful only while InCS; outside a section it reports the
// previous section's timestamp.
func (t *Thread[T]) SnapshotTS() uint64 { return t.ts }

// Domain returns the owning domain.
func (t *Thread[T]) Domain() *Domain[T] { return t.d }

// InCS reports whether the handle is inside a critical section.
func (t *Thread[T]) InCS() bool { return t.inCS }

func (t *Thread[T]) String() string {
	return fmt.Sprintf("mvrlu.Thread(%d)", t.id)
}
