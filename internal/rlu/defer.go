package rlu

import "mvrlu/internal/check"

// Deferred write-back ("RLU defer", RLU paper §3.5; the MV-RLU paper
// evaluated both and reports no noticeable difference — §6.1). In
// deferring mode a committing thread skips rlu_synchronize: its copies
// stay locked and invisible (no write clock is advertised), batching
// grace periods across critical sections. The log is flushed — write
// clock, synchronize, write back, unlock — when
//
//   - another thread's TryLock hits one of the deferred locks (it sets a
//     sync request and aborts; the owner flushes at its next boundary),
//   - the deferred log reaches the domain's defer capacity, or
//   - the owner calls Flush explicitly (e.g. before going idle — a
//     deferring thread that stops operating otherwise starves waiters).
//
// Readers are unaffected: a deferred copy has write clock ∞, so the
// steal rule keeps them on the (older, consistent) masters.

// deferCapDefault bounds the deferred log when deferring is enabled.
const deferCapDefault = 64

// NewDeferredDomain creates an RLU domain in deferring mode.
func NewDeferredDomain[T any](mode ClockMode) *Domain[T] {
	d := NewDomain[T](mode)
	d.deferred = true
	d.deferCap = deferCapDefault
	return d
}

// Deferred reports whether the domain defers write-backs.
func (d *Domain[T]) Deferred() bool { return d.deferred }

// Flush forces write-back of this thread's deferred log. Must be called
// outside a critical section. It is a no-op when nothing is deferred.
func (t *Thread[T]) Flush() {
	if t.inCS {
		panic("rlu: Flush inside critical section")
	}
	if len(t.wlog) == 0 {
		t.syncReq.Store(false)
		return
	}
	t.flush()
}

// flush runs the full commit protocol over the accumulated log.
func (t *Thread[T]) flush() {
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
			t.crec.Write(check.ObjID(&e.obj.oid), wc, 0, fl)
		}
	}
	t.synchronize(wc)
	for _, e := range t.wlog {
		if e.freeing {
			e.obj.freed.Store(true)
		} else {
			e.obj.data = e.data
		}
	}
	for _, e := range t.wlog {
		if rec && !e.freeing {
			// The master-write above is this commit's write-back.
			// Recorded before the unlock below so a successor that
			// locks the master can only be ticketed after it.
			t.d.chk.Writeback(check.ObjID(&e.obj.oid), wc, 0)
		}
		e.obj.copy.Store(nil)
	}
	t.newWriteC()
	t.wlog = t.wlog[:0]
	t.wsStart = 0
	t.syncReq.Store(false)
	t.stats.Flushes++
}
