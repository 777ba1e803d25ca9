package check

import "fmt"

// Kind identifies what a recorded Event describes.
type Kind uint8

const (
	// Per-thread events (recorded into the owning thread's stream).

	// EvBegin: a critical section was entered. TS = entry timestamp.
	// Stamped after the entry timestamp is published, so a Begin ticket
	// ordered before a watermark-scan ticket does not by itself imply
	// the scan saw the section (the checker's watermark rule is phrased
	// to stay sound regardless; see checkWatermarks).
	EvBegin Kind = iota + 1
	// EvEnd: the section committed (or was read-only) and exited
	// cleanly. Stamped before the reader pin is released, so an End
	// ticket ordered after a watermark-scan ticket proves the pin was
	// still held when that scan completed.
	EvEnd
	// EvAbort: the section exited via Abort or a rolled-back panic.
	// Engines record EvWrite only on the commit path, so an aborted
	// section must contain no writes; the checker flags any it finds.
	EvAbort
	// EvDeref: a dereference observed a version of Obj. VTS = the
	// commit timestamp of the observed version (0 for the master copy,
	// FlagOwn for the thread's own uncommitted copy). Aux = chain hops
	// walked. Ticketed inside the section BEFORE the walk's first load
	// (see ThreadRec.DerefTicket), recorded once the outcome is known.
	EvDeref
	// EvWrite: one write-set entry of a commit. TS = commit timestamp,
	// Obj = object id, VTS = the commit timestamp this write was based
	// on (0 when locked from the master copy — FlagFromMaster set).
	// FlagConst marks TryLockConst entries (validation-only: must not
	// enter the version chain), FlagFree marks a committed Free.
	// One event per write-set object, all sharing TS.
	EvWrite

	// Global events (recorded under History.mu because they may run on
	// the grace-period detector's goroutine, not an engine thread).

	// EvReclaim: GC reclaimed a version of Obj. VTS = its commit
	// timestamp, Aux = its superseded timestamp (0 if none), Aux2 = the
	// watermark the reclamation was justified by. Flags carry the
	// version state (FlagConst/FlagFree/FlagPruned). Stamped before the
	// slot is released for reuse, so any observation of this version
	// ticketed after the reclaim is a genuine use-after-free.
	EvReclaim
	// EvWriteback: GC wrote the newest committed version of Obj back to
	// the master copy and detached the chain. VTS = that version's
	// commit timestamp, Aux = the prune timestamp stamped on the chain.
	EvWriteback
	// EvWatermark: the grace-period detector broadcast a reclamation
	// watermark. TS = the raw minimum entry timestamp the scan
	// computed, VTS = the value actually published (raw − boundary for
	// a correct engine), Aux = the boundary in effect. Stamped after
	// the publish CAS.
	EvWatermark
	// EvSlotReset: GC reset a version's log slot for reuse (a segment
	// release). Obj/VTS name the version the slot held. Stamped before
	// the reset; a correct engine reclaimed that version first.
	EvSlotReset

	// RCU events (internal/rcu has no timestamps; ordering is purely by
	// ticket). EvRCUBegin is stamped after the reader's run counter
	// goes odd; EvRCUEnd before it goes even; EvRCUSyncStart before the
	// synchronize scan begins; EvRCUSyncEnd after it returns. So a
	// reader section whose Begin ticket precedes a SyncStart ticket and
	// whose End ticket follows the matching SyncEnd ticket was
	// demonstrably active across the entire grace period — a violation.
	EvRCUBegin
	EvRCUEnd
	EvRCUSyncStart
	EvRCUSyncEnd

	// KV-store events (every kvstore single-domain build; validated by
	// CheckKV). A KV history is recorded separately from the engine-level
	// history: Check rejects these kinds and CheckKV rejects the ones
	// above, so the two layers can never be conflated.

	// EvKVWrite: one committed index mutation. Obj = interned key id
	// (History.KeyID), TS = the commit timestamp, Aux = ValueHash of the
	// written value (0 for a delete, which also sets FlagFree), Aux2 =
	// transaction id (0 for a single-key commit; every write of one
	// multi-key transaction shares one id and one TS). Recorded after
	// the commit publishes and under its body's writer locks, so per
	// key ticket order equals commit order.
	EvKVWrite
	// EvKVRangeBegin: a walk pinned its snapshot. TS = the section's
	// snapshot timestamp, Obj/Aux = interned lo/hi key ids (inclusive
	// bounds), FlagRev for a descending walk. With FlagPrefix it is a
	// prefix walk: Obj = the prefix, Aux unused, and the pairs come in
	// no key order (a hash tower walks in bucket order). Recorded
	// before the walk's first load, so a write ticketed earlier was
	// fully published before the walk began — the edge the stale and
	// missing-key rules stand on.
	EvKVRangeBegin
	// EvKVRangeObs: the walk yielded one pair. Obj = interned key id,
	// Aux = ValueHash of the observed value.
	EvKVRangeObs
	// EvKVRangeEnd: the walk finished. FlagPartial marks an early stop
	// (LIMIT, callback break) — the absence rules then apply only to
	// the key span the walk provably covered.
	EvKVRangeEnd
)

var kindNames = map[Kind]string{
	EvBegin:        "begin",
	EvEnd:          "end",
	EvAbort:        "abort",
	EvDeref:        "deref",
	EvWrite:        "write",
	EvReclaim:      "reclaim",
	EvWriteback:    "writeback",
	EvWatermark:    "watermark",
	EvSlotReset:    "slot-reset",
	EvRCUBegin:     "rcu-begin",
	EvRCUEnd:       "rcu-end",
	EvRCUSyncStart: "rcu-sync-start",
	EvRCUSyncEnd:   "rcu-sync-end",
	EvKVWrite:      "kv-write",
	EvKVRangeBegin: "kv-range-begin",
	EvKVRangeObs:   "kv-range-obs",
	EvKVRangeEnd:   "kv-range-end",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event flags.
const (
	// FlagConst marks a TryLockConst write-set entry.
	FlagConst uint8 = 1 << iota
	// FlagFree marks a write that freed the object (or, on EvReclaim, a
	// freeing version).
	FlagFree
	// FlagFromMaster marks a write whose TryLock copied from the master
	// (no committed predecessor in the chain), and a Deref that
	// observed the master copy.
	FlagFromMaster
	// FlagOwn marks a Deref that returned the thread's own uncommitted
	// write-set copy (exempt from the snapshot rule).
	FlagOwn
	// FlagPruned marks a reclaimed version that had been detached by a
	// write-back (its prune timestamp is in Aux2's justification).
	FlagPruned
	// FlagPartial marks an EvKVRangeEnd whose walk stopped early.
	FlagPartial
	// FlagRev marks a descending EvKVRangeBegin.
	FlagRev
	// FlagPrefix marks an EvKVRangeBegin of an unordered prefix walk.
	FlagPrefix
)

// Event is one record in a history. Field meaning depends on Kind; see
// the Kind constants. The zero Obj/VTS/Aux/Aux2 mean "not applicable".
type Event struct {
	Seq   uint64
	TS    uint64
	Obj   uint64
	VTS   uint64
	Aux   uint64
	Aux2  uint64
	Kind  Kind
	Flags uint8
}

func (e Event) String() string {
	return fmt.Sprintf("#%d %s ts=%d obj=%d vts=%d aux=%d aux2=%d flags=%02x",
		e.Seq, e.Kind, e.TS, e.Obj, e.VTS, e.Aux, e.Aux2, e.Flags)
}
