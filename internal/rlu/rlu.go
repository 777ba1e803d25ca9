// Package rlu implements the original read-log-update mechanism
// (Matveev et al., SOSP 2015), the baseline MV-RLU extends.
//
// RLU keeps at most two versions of an object: the master and one copy in
// the writer's log. Readers take the global clock as their local clock;
// a writer commits by advertising a write clock of global+1, bumping the
// global clock, and then executing rlu_synchronize — spinning until every
// concurrent reader that started before the write clock leaves its
// critical section — before writing copies back to the masters and
// unlocking them. That synchronous wait on the writer's critical path is
// the scalability limit the paper quantifies (Figure 2: a writer that
// needs a third version must wait for a quiescent state).
//
// The package mirrors internal/core's API shape (Domain/Thread/Object,
// ReadLock/Deref/TryLock/ReadUnlock/Abort) so the benchmark data
// structures look alike across mechanisms. The RLU-ORDO variant of the
// paper's evaluation replaces the global clock with the scalable clock
// from internal/clock.
package rlu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"mvrlu/internal/check"
	"mvrlu/internal/clock"
)

// ClockMode selects RLU's timestamp source.
type ClockMode int

const (
	// ClockGlobal is classic RLU: one shared atomic counter.
	ClockGlobal ClockMode = iota
	// ClockOrdo is the RLU-ORDO variant evaluated in the paper.
	ClockOrdo
)

// Object is an RLU-protected master object. At most one copy of it exists
// at a time, in the locking thread's write log.
type Object[T any] struct {
	// copy is the lock word and copy pointer in one. A committed Free
	// stores the domain's freed marker here for good.
	copy atomic.Pointer[entry[T]]
	data T // master
}

// NewObject allocates a master object.
func NewObject[T any](data T) *Object[T] { return &Object[T]{data: data} }

// Freed reports whether the object was freed.
func (o *Object[T]) Freed() bool {
	e := o.copy.Load()
	return e != nil && e.thr == nil
}

// entry is a write-log entry: the single copy RLU maintains.
type entry[T any] struct {
	thr *Thread[T] // nil only for the domain's freed marker
	obj *Object[T]
	// writeC is the commit word of the flush that will write this entry
	// back, fixed at TryLock.
	writeC  *clock.CommitWord
	freeing bool
	data    T
}

// Domain is an RLU domain: the clock plus the registered threads that
// rlu_synchronize must wait for.
type Domain[T any] struct {
	mode    ClockMode
	global  atomic.Uint64 // ClockGlobal
	hw      clock.Hardware
	threads atomic.Pointer[[]*Thread[T]]
	mu      sync.Mutex
	// chk is the attached history recorder, nil in normal operation.
	chk *check.History
	// freed is every freed object's copy word: no thread owns it and its
	// write clock stays Pending, so a Deref reads the master.
	freed *entry[T]
}

// AttachHistory attaches a history recorder: threads registered
// afterwards record sections, dereferences, and flush write-backs while
// check recording is enabled. RLU maps onto the checker's multi-version
// model directly: every TryLock copies from the master (from-master
// commits) and every flush is the write-back of its write clock.
func (d *Domain[T]) AttachHistory(h *check.History) { d.chk = h }

// NewDomain creates an RLU domain.
func NewDomain[T any](mode ClockMode) *Domain[T] {
	never := new(clock.CommitWord)
	never.Reset()
	d := &Domain[T]{mode: mode, freed: &entry[T]{writeC: never}}
	empty := make([]*Thread[T], 0)
	d.threads.Store(&empty)
	return d
}

// Close releases the domain (present for API symmetry; RLU has no
// background work).
func (d *Domain[T]) Close() {}

// Alloc creates a master object.
func (d *Domain[T]) Alloc(data T) *Object[T] { return NewObject(data) }

func (d *Domain[T]) readClock() uint64 {
	if d.mode == ClockOrdo {
		return d.hw.Now()
	}
	return d.global.Load()
}

// writeClock draws a flush's write clock. The +1 meets the CommitWord
// precondition: with a zero window the hardware clock can return a
// reader's entry nanosecond, and a write clock equal to that reader's
// localC would let it steal one copy after reading another object's old
// master.
func (d *Domain[T]) writeClock() uint64 {
	if d.mode == ClockOrdo {
		return d.hw.Now() + d.hw.Boundary() + 1
	}
	return d.global.Add(1)
}

// newWriteC gives the next flush a fresh commit word (see Thread.writeC).
func (t *Thread[T]) newWriteC() {
	w := new(clock.CommitWord)
	w.Reset()
	t.writeC.Store(w)
}

// Register adds the calling goroutine as an RLU thread.
func (d *Domain[T]) Register() *Thread[T] {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.threads.Load()
	t := &Thread[T]{d: d, id: len(old)}
	t.newWriteC()
	if d.chk != nil {
		t.crec = d.chk.ThreadRec()
	}
	next := make([]*Thread[T], len(old)+1)
	copy(next, old)
	next[len(old)] = t
	d.threads.Store(&next)
	return t
}

// Thread is a per-goroutine RLU handle.
type Thread[T any] struct {
	d  *Domain[T]
	id int

	// runCnt is odd while inside a critical section (the quiescence
	// signal rlu_synchronize polls).
	runCnt atomic.Uint64
	// localC is the critical-section entry clock.
	localC atomic.Uint64
	// writeC is the next flush's commit word (clock.CommitWord): its
	// write clock, Pending outside a flush. A reader with localC ≥ the
	// write clock steals the writer's copies. Each entry keeps its own
	// flush's word and each flush gets a fresh one, so a reader's Stamp
	// can only land on the word it saw Committing, never on a later
	// flush's seal with a clock drawn before it.
	writeC atomic.Pointer[clock.CommitWord]

	wlog []*entry[T]
	inCS bool

	// crec is the history-checker stream, nil unless the domain had a
	// History attached at registration time.
	crec *check.ThreadRec

	// lastWC is the write clock of the owner's most recent flush —
	// what a durability hook stamps onto the commit records Execute
	// just flushed (owner-only, read via LastCommitTS).
	lastWC uint64

	stats Stats
}

// SnapshotTS returns the entry clock of the open critical section —
// the clock every Deref in this section steals against. Owner-only and
// meaningful only while inside a section.
func (t *Thread[T]) SnapshotTS() uint64 { return t.localC.Load() }

// LastCommitTS returns the write clock of the owner's most recent
// committed flush; 0 before the first commit. Owner-only.
func (t *Thread[T]) LastCommitTS() uint64 { return t.lastWC }

// Stats counts RLU events; read only while quiescent.
type Stats struct {
	Commits   uint64
	Aborts    uint64
	SyncSpins uint64 // polling iterations inside rlu_synchronize
	Steals    uint64 // dereferences served from another writer's copy
}

// Stats aggregates thread counters; call while quiescent.
func (d *Domain[T]) Stats() Stats {
	var s Stats
	for _, t := range *d.threads.Load() {
		s.Commits += t.stats.Commits
		s.Aborts += t.stats.Aborts
		s.SyncSpins += t.stats.SyncSpins
		s.Steals += t.stats.Steals
	}
	return s
}

// ReadLock enters a critical section.
func (t *Thread[T]) ReadLock() {
	if t.inCS {
		panic("rlu: nested ReadLock")
	}
	t.inCS = true
	t.runCnt.Add(1) // odd: active
	lc := t.d.readClock()
	t.localC.Store(lc)
	if t.crec != nil {
		t.crec.Begin(lc)
	}
}

// Deref returns the view of o for this critical section: the master, the
// thread's own copy, or a stolen copy from a committing writer whose
// write clock this section can already observe.
func (t *Thread[T]) Deref(o *Object[T]) *T {
	if o == nil {
		return nil
	}
	var tk uint64
	rec := t.crec != nil
	if rec {
		tk = t.crec.DerefTicket() // before the first load; see DerefTicket
	}
	e := o.copy.Load()
	if e == nil {
		if rec {
			t.crec.DerefAt(tk, t.crec.ObjID(unsafe.Pointer(o)), 0, 0, check.FlagFromMaster)
		}
		return &o.data
	}
	if e.thr == t {
		if rec {
			t.crec.DerefAt(tk, t.crec.ObjID(unsafe.Pointer(o)), 0, 1, check.FlagOwn)
		}
		return &e.data
	}
	wc := e.writeC.Load()
	if wc == clock.Committing {
		wc = e.writeC.Stamp(t.d.writeClock())
	}
	if wc <= t.localC.Load() {
		t.stats.Steals++
		if rec {
			// A stolen copy is an observation of the commit at the
			// writer's advertised write clock.
			t.crec.DerefAt(tk, t.crec.ObjID(unsafe.Pointer(o)), wc, 1, 0)
		}
		return &e.data
	}
	if rec {
		t.crec.DerefAt(tk, t.crec.ObjID(unsafe.Pointer(o)), 0, 1, check.FlagFromMaster)
	}
	return &o.data
}

// TryLock locks o and returns its private copy. On failure the caller
// must Abort and retry — including when the holder is mid-commit, which
// is precisely the synchronous wait of Figure 2.
func (t *Thread[T]) TryLock(o *Object[T]) (*T, bool) {
	if !t.inCS {
		panic("rlu: TryLock outside critical section")
	}
	if o == nil {
		return nil, false
	}
	if e := o.copy.Load(); e != nil {
		if e.thr == t {
			return &e.data, true
		}
		return nil, false
	}
	e := &entry[T]{thr: t, obj: o, writeC: t.writeC.Load(), data: o.data}
	if !o.copy.CompareAndSwap(nil, e) {
		return nil, false
	}
	t.wlog = append(t.wlog, e)
	return &e.data, true
}

// Free marks the object (which must be locked by this thread in this
// critical section) to be freed at commit.
func (t *Thread[T]) Free(o *Object[T]) bool {
	if !t.inCS || o == nil {
		return false
	}
	e := o.copy.Load()
	if e == nil || e.thr != t {
		return false
	}
	e.freeing = true
	return true
}

// ReadUnlock leaves the critical section; if the write log is non-empty
// it commits: advertise the write clock, rlu_synchronize, write back,
// unlock.
func (t *Thread[T]) ReadUnlock() {
	if !t.inCS {
		panic("rlu: ReadUnlock outside critical section")
	}
	if len(t.wlog) > 0 {
		t.commit()
	}
	t.inCS = false
	if t.crec != nil {
		t.crec.End() // before the quiescent transition, like core's End
	}
	t.runCnt.Add(1) // even: quiescent
}

// Abort discards the write log and unlocks.
func (t *Thread[T]) Abort() {
	if !t.inCS {
		panic("rlu: Abort outside critical section")
	}
	for i := len(t.wlog) - 1; i >= 0; i-- {
		e := t.wlog[i]
		if e.obj.copy.Load() == e {
			e.obj.copy.Store(nil)
		}
	}
	t.wlog = t.wlog[:0]
	t.inCS = false
	if t.crec != nil {
		t.crec.Abort()
	}
	t.runCnt.Add(1)
	t.stats.Aborts++
}

// Execute runs fn in a critical section, aborting and retrying while fn
// returns false.
func (t *Thread[T]) Execute(fn func(*Thread[T]) bool) {
	for {
		t.ReadLock()
		if fn(t) {
			t.ReadUnlock()
			return
		}
		t.Abort()
		// Yield before retrying so the conflicting writer (possibly
		// mid-rlu_synchronize) can make progress.
		runtime.Gosched()
	}
}

// commit runs the commit protocol over the write log: seal and stamp
// the write clock, rlu_synchronize, write back, unlock.
func (t *Thread[T]) commit() {
	t.stats.Commits++
	w := t.writeC.Load()
	w.Seal() // every copy is reachable since its TryLock
	wc := w.Stamp(t.d.writeClock())
	t.lastWC = wc
	rec := t.crec != nil
	if rec {
		// Every RLU commit copies from the master (TryLock has no
		// chain to base on) and carries the flush's write clock.
		for _, e := range t.wlog {
			fl := check.FlagFromMaster
			if e.freeing {
				fl |= check.FlagFree
			}
			t.crec.Write(t.crec.ObjID(unsafe.Pointer(e.obj)), wc, 0, fl)
		}
	}
	t.synchronize(wc)
	for _, e := range t.wlog {
		if !e.freeing {
			e.obj.data = e.data
		}
	}
	for _, e := range t.wlog {
		if e.freeing {
			e.obj.copy.Store(t.d.freed)
			continue
		}
		if rec {
			// The master-write above is this commit's write-back.
			// Recorded before the unlock below so a successor that
			// locks the master can only be ticketed after it.
			t.d.chk.Writeback(t.crec.ObjID(unsafe.Pointer(e.obj)), wc, 0)
		}
		e.obj.copy.Store(nil)
	}
	t.newWriteC()
	t.wlog = t.wlog[:0]
}

// synchronize is rlu_synchronize: wait until every thread that was inside
// a critical section older than wc has left it. This is the synchronous
// quiescence wait that MV-RLU moves off the critical path.
func (t *Thread[T]) synchronize(wc uint64) {
	// A thread that enters after the scan below is not waited for, so it
	// must steal: its read clock must already reach wc. The global
	// counter passed wc at the draw; the hardware clock (wc is one past a
	// reading) is read until it has.
	if t.d.mode == ClockOrdo {
		for t.d.hw.Now() < wc+t.d.hw.Boundary() {
		}
	}
	threads := *t.d.threads.Load()
	type obs struct {
		t   *Thread[T]
		cnt uint64
	}
	waits := make([]obs, 0, len(threads))
	for _, other := range threads {
		if other == t {
			continue
		}
		cnt := other.runCnt.Load()
		if cnt%2 == 1 {
			waits = append(waits, obs{other, cnt})
		}
	}
	for _, w := range waits {
		for {
			if w.t.runCnt.Load() != w.cnt {
				break // left (and possibly re-entered with a newer clock)
			}
			if w.t.localC.Load() >= wc {
				break // started after our write clock: steals our copies
			}
			if w.t.writeC.Load().Load() != clock.Pending {
				// The thread is itself committing: it is past all
				// of its dereferences, so it can be treated as
				// quiescent — and waiting for it would deadlock
				// two concurrent committers.
				break
			}
			t.stats.SyncSpins++
			runtime.Gosched()
		}
	}
}
