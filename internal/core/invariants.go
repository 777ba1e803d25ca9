package core

import "fmt"

// This file holds verification and lifecycle support: invariant checking
// used by the test harnesses, and thread deregistration.

// CheckObject validates the structural invariants of the reader-visible
// prefix of one object's version chain. It must only be called while the
// caller can rule out concurrent commits to o (tests call it at
// quiescence). It verifies, down to the first version older than the
// reclamation watermark:
//
//   - the prefix is acyclic and of sane length,
//   - commit timestamps strictly decrease from head onwards (§3.2's
//     newest-to-oldest invariant),
//   - no chain entry in the prefix is still marked uncommitted,
//   - every entry's write-set header holds the entry's timestamp (the
//     header outlives every reader that may still consult it), and
//   - the pending slot, if set, belongs to a registered thread or is the
//     domain's write-back sentinel or freed marker.
//
// The walk stops at the watermark frontier deliberately: every active
// and future reader selects a version at or above the first one whose
// commit timestamp is below the watermark, so `older` pointers beyond it
// may legally reference reclaimed (reused) slots — the same argument
// that makes slot reuse safe (§4.2) makes them unverifiable.
func (d *Domain[T]) CheckObject(o *Object[T]) error {
	if o == nil {
		return fmt.Errorf("mvrlu: CheckObject(nil)")
	}
	w := d.refreshWatermark()
	const maxChain = 1 << 20
	prev := uncommitted // above every commit timestamp
	n := 0
	for v := o.copy.Load(); v != nil; v = v.older {
		n++
		if n > maxChain {
			return fmt.Errorf("mvrlu: chain exceeds %d entries (cycle?)", maxChain)
		}
		ts := v.commitTS.Load()
		if ts >= uncommitted {
			return fmt.Errorf("mvrlu: uncommitted version in chain at depth %d", n)
		}
		if h := v.ws; h == nil || h.Load() != ts {
			return fmt.Errorf("mvrlu: write-set header of the version at depth %d lost its timestamp %d", n, ts)
		}
		if ts >= prev {
			return fmt.Errorf("mvrlu: chain not newest-to-oldest at depth %d (%d after %d)", n, ts, prev)
		}
		prev = ts
		if ts < w {
			break // below the watermark: unreachable by any reader
		}
	}
	if p := o.pending.Load(); p != nil && p != d.sentinel && p != d.freed {
		if p.owner < 0 {
			return fmt.Errorf("mvrlu: pending owner %d invalid", p.owner)
		}
	}
	return nil
}

// ChainLen returns the number of committed versions chained on o down to
// the reclamation watermark. The walk deliberately stops at the first
// version whose commit timestamp is below the watermark: everything
// older is superseded below the watermark too, hence reclaimable — its
// log slot may already have been reused, so its older pointer is
// untrustworthy (readers never walk there either; Lemma 1 stops them at
// the first visible version). Like CheckObject it must only be called
// while the caller can rule out concurrent commits and concurrent
// reclamation of o's versions (quiescent writers, and no
// single-collector detector): it is a diagnostic for tests and tools
// that measure how far reclamation lags a pinned watermark.
func (d *Domain[T]) ChainLen(o *Object[T]) int {
	w := d.watermark.Load()
	n := 0
	for v := o.copy.Load(); v != nil; v = v.older {
		n++
		if v.commitTS.Load() < w {
			break
		}
	}
	return n
}

// Unregister removes the thread from the domain's watermark scan. The
// thread must be outside any critical section; the handle is unusable
// afterwards. Versions still in the departed thread's log stay valid —
// Go's garbage collector owns the memory — but are no longer written
// back or reclaimed, so chains they head shrink only when superseded by
// live writers.
//
// Unregister stops the leak guard (the handle may now be dropped without
// being flagged) and folds the thread's counters into the domain's
// departed aggregate so Domain.Stats stays complete. It is idempotent:
// a second call finds no entry and does nothing.
func (t *Thread[T]) Unregister() {
	if t.inCS {
		panic("mvrlu: Unregister inside critical section")
	}
	t.resetDerefCounters()
	d := t.d
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.threads.Load()
	next := make([]threadEntry[T], 0, len(old))
	for _, e := range old {
		if e.id != t.id {
			next = append(next, e)
			continue
		}
		e.cleanup.Stop()
		// gcMu: in single-collector mode the detector may be inside
		// t.collect() against a stale registry snapshot, still writing
		// the GC-pass counters.
		t.gcMu.Lock()
		d.departed.add(e.stats)
		t.gcMu.Unlock()
		d.departedHists.absorb(e.hists)
	}
	d.threads.Store(&next)
}

// Close unregisters the handle; it is Unregister under the name the rest
// of the ecosystem expects from a lifecycle endpoint.
func (t *Thread[T]) Close() { t.Unregister() }
