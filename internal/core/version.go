package core

import (
	"sync/atomic"

	"mvrlu/internal/clock"
)

// uncommitted is the least commit-word value that reads as "not yet
// committed": Pending (∞ until the write set commits, §3.2) and
// Committing (a sealed header not yet stamped).
const uncommitted = clock.Committing

// Owners of the domain's write-back sentinel and freed marker.
const sentinelOwner, freedOwner = -1, -2

// version is a copy object. Versions live in per-thread circular logs and
// their slots are reused once reclamation proves no reader can reach them.
type version[T any] struct {
	// commitTS is the version's commit word: Pending until the owning
	// write set commits, then its commit timestamp, copied in once the
	// set's header holds it so a committed hop costs one load (§3.2).
	// One version's word is the set's header itself (Thread.header).
	commitTS clock.CommitWord
	// ws is the write-set header (§3.2), shared by every copy of one
	// critical section: set at commit before the version is published,
	// and consulted while commitTS is not yet final. Its stamp is the
	// commit's linearization point (§3.5).
	ws *clock.CommitWord
	// obj is the master this version belongs to.
	obj *Object[T]
	// older links to the previous committed version (newest→oldest
	// chain, §3.2). Written while holding the object lock, before the
	// version is published; immutable afterwards.
	older *version[T]
	// olderTS caches older's commit timestamp (§3.2).
	olderTS uint64
	// supersededTS is the commit timestamp of the next newer version,
	// set by that version's committer; 0 while this version is the
	// newest. A version whose supersededTS is below the reclamation
	// watermark is invisible (Lemma 1) and its slot reusable.
	supersededTS atomic.Uint64
	// prunedTS is set after the version, as chain head, was written
	// back to its master and unlinked (Lemma 2); once it falls below
	// the watermark no reader holds the chain that contained it
	// (Lemma 3) and the slot is reusable.
	prunedTS atomic.Uint64
	// owner is the registering index of the thread whose log holds the
	// version, or sentinelOwner/freedOwner for the domain's markers.
	owner int
	// constLock marks a try_lock_const copy (§2.1): it conflicts like a
	// write but is never pushed to the chain and its slot is reusable
	// immediately after commit.
	constLock bool
	// freeing marks the final version of an object being freed (§3.8);
	// at commit the freed marker takes the object's pending word.
	freeing bool
	// data is the private copy of the payload.
	data T
}

// resolveTS returns the version's effective commit timestamp, falling back
// to the write-set header while its own word is not yet final (§3.2).
func (v *version[T]) resolveTS() uint64 {
	ts := v.commitTS.Load()
	if ts >= uncommitted {
		ts = v.ws.Load()
	}
	return ts
}

// reset prepares a slot for reuse. Safe only once reclamation has proved
// no reader can reach the version, nor the header word it may hold.
func (v *version[T]) reset() {
	v.commitTS.Reset()
	v.ws = nil
	v.obj = nil
	v.older = nil
	v.olderTS = 0
	v.supersededTS.Store(0)
	v.prunedTS.Store(0)
	v.constLock = false
	v.freeing = false
	var zero T
	v.data = zero
}
