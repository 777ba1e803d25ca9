// Package rcu implements userspace read-copy-update in the
// quiescent-state style of liburcu, the read-mostly baseline of the
// paper's evaluation.
//
// Readers bracket traversals with ReadLock/ReadUnlock (free apart from
// two local atomic increments). Writers publish changes with single
// atomic pointer updates and call Synchronize before reclaiming — the
// grace-period wait whose cost the paper's RCU curves pay on every
// removal. In Go the runtime GC makes reclamation memory-safe without
// Synchronize, but algorithms (and cost comparisons) still need the wait:
// a removal is not durable-to-readers until a grace period elapses, and
// structures like the Citrus tree rely on it for correctness. Writers
// coordinate among themselves with data-structure locks (per-list
// spinlock, per-bucket locks), matching the configurations in §6.
package rcu

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mvrlu/internal/check"
)

// Domain tracks registered reader threads for grace-period detection.
type Domain struct {
	threads atomic.Pointer[[]*Thread]
	mu      sync.Mutex
	// chk is the attached history recorder, nil in normal operation.
	chk *check.History
}

// AttachHistory attaches a history recorder: threads registered
// afterwards record read-side sections and Synchronize episodes while
// check recording is enabled, for check.CheckRCU's grace-period rule.
func (d *Domain) AttachHistory(h *check.History) { d.chk = h }

// NewDomain creates an RCU domain.
func NewDomain() *Domain {
	d := &Domain{}
	empty := make([]*Thread, 0)
	d.threads.Store(&empty)
	return d
}

// Register adds the calling goroutine as an RCU reader.
func (d *Domain) Register() *Thread {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.threads.Load()
	t := &Thread{d: d}
	if d.chk != nil {
		t.crec = d.chk.ThreadRec()
	}
	next := make([]*Thread, len(old)+1)
	copy(next, old)
	next[len(old)] = t
	d.threads.Store(&next)
	return t
}

// Thread is a per-goroutine RCU reader handle.
type Thread struct {
	d *Domain
	// runCnt is odd while inside a read-side critical section.
	runCnt atomic.Uint64
	// crec is the history-checker stream, nil unless attached.
	crec *check.ThreadRec
	// SyncSpins counts grace-period polling iterations (stats).
	SyncSpins uint64
}

// ReadLock enters a read-side critical section. Sections may not nest.
func (t *Thread) ReadLock() {
	t.runCnt.Add(1)
	if t.crec != nil {
		// Ticketed after the counter goes odd: a begin ticket before a
		// synchronize's start ticket proves the scan saw this section.
		t.crec.RCUBegin()
	}
}

// ReadUnlock leaves the read-side critical section.
func (t *Thread) ReadUnlock() {
	if t.crec != nil {
		// Ticketed before the counter goes even: an end ticket after a
		// synchronize's end ticket proves the scan returned while this
		// section was still active.
		t.crec.RCUEnd()
	}
	t.runCnt.Add(1)
}

// InCS reports whether the handle is inside a read-side section.
func (t *Thread) InCS() bool { return t.runCnt.Load()%2 == 1 }

// Synchronize waits for a grace period: every reader that was inside a
// critical section when it was called has left it. The caller must not
// be inside a read-side critical section itself.
func (t *Thread) Synchronize() {
	if t.InCS() {
		panic("rcu: Synchronize inside read-side critical section")
	}
	rec := t.crec != nil
	if rec {
		t.crec.RCUSyncStart() // ticketed before the scan begins
	}
	threads := *t.d.threads.Load()
	type obs struct {
		t   *Thread
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
		for w.t.runCnt.Load() == w.cnt {
			t.SyncSpins++
			runtime.Gosched()
		}
	}
	if rec {
		t.crec.RCUSyncEnd() // ticketed after every waited reader left
	}
}

// Synchronize waits for a grace period on behalf of a caller without a
// Thread handle (e.g. a writer goroutine that never reads).
func (d *Domain) Synchronize() {
	tmp := &Thread{d: d}
	tmp.Synchronize()
}
