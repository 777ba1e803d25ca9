package kvstore

import (
	"sync/atomic"

	"mvrlu/internal/check"
	"mvrlu/internal/obs"
)

// Tower is the build-specific half of a store: its node type and the
// loops that read and write it. TowerSession crosses it a bounded number
// of times per operation — never per node — so each engine's walk stays
// monomorphic (a per-Deref seam, i.e. a structure generic over the
// engine, measured +14% on Get; DESIGN.md §12). The six towers are the
// engine builds' slot/bucket trees (mvrlu-kv, rlu-kv) and skiplists
// (mvrlu-idx, rlu-idx, in internal/index), and the two vanilla
// baselines, whose writer locks are separate from the global lock their
// Apply and readers take.
//
// A Tower belongs to one session (the engine towers hold its thread
// handle and scratch) and is used by one goroutine at a time under the
// Session contract.
type Tower interface {
	// Lock takes the writer locks that cover ops[keep[j]] and does what
	// must happen under them before Apply (the skiplists draw tower
	// heights). Every writer takes its locks in one global order, so
	// bodies over overlapping lock sets cannot deadlock.
	Lock(ops []TxnOp, keep []int)
	// Unlock releases what the last Lock took.
	Unlock()
	// Apply runs ops[keep[j]] inside ONE Execute body — one write set,
	// one commit — filling removed[i] for the deletes, and returns the
	// commit timestamp (the vanilla towers tick their version clock
	// once per body). Called between Lock and Unlock.
	Apply(ops []TxnOp, keep []int, removed []bool) (commitTS uint64)
	// Get is one point read in its own critical section.
	Get(key string) (string, bool)
	// Walk visits every pair whose key has prefix, inside the CALLER's
	// critical section, until fn returns false. An ordered tower seeks
	// the prefix and stops past it; a hash tower visits every tree and
	// filters, in no key order.
	Walk(prefix string, fn func(key, value string) bool)
	ReadLock()
	ReadUnlock()
	// SnapshotTS is the open read section's timestamp: the engine
	// thread's entry timestamp, or the vanilla clock under the read lock.
	SnapshotTS() uint64
	// ThreadID is the engine registry id of the tower's thread handle —
	// the id the stall detector names when its snapshot pins the
	// watermark — or -1 on a build without that detector.
	ThreadID() int
	// Close releases the engine thread handle, if any.
	Close()
}

// StoreBase is the store half every single-domain build embeds: the
// session count, the commit hooks, and the KV history with its
// transaction sequence.
type StoreBase struct {
	sessions atomic.Int64
	hist     *check.History
	// txnSeq numbers multi-op commits in the KV history. Atomic: writers
	// on disjoint slots commit concurrently.
	txnSeq  atomic.Uint64
	hook    CommitHook
	txnHook TxnHook
}

// AttachKVHistory makes every session created afterwards record its
// commits and snapshot walks into h for check.CheckKV.
func (b *StoreBase) AttachKVHistory(h *check.History) { b.hist = h }

// NumSessions implements Store.
func (b *StoreBase) NumSessions() int { return int(b.sessions.Load()) }

// SetCommitHook implements Store. The hook runs under the commit's
// writer locks, so for any key hook order equals commit order.
func (b *StoreBase) SetCommitHook(h CommitHook) { b.hook = h }

// SetTxnCommitHook implements Store: committed ApplyTxn groups are
// delivered here as one call (and not to the per-op hook) when set.
func (b *StoreBase) SetTxnCommitHook(h TxnHook) { b.txnHook = h }

// TowerSession is the whole TxnSession surface of every single-domain
// build: the one commit routine behind Set, Remove and
// ApplyTxn (lock, apply, record, deliver), trace spans, and the one
// snapshot walk behind ForEach, ForEachPrefix and the ordered builds'
// ranges. Everything build-specific is behind the Tower. A build embeds
// it next to its tower, or allocates it alone, and calls Init.
type TowerSession struct {
	b  *StoreBase
	tw Tower
	// crec records into b's KV history; nil when none was attached.
	crec *check.ThreadRec
	// tr is the active request trace; nil costs writers one pointer
	// test per operation.
	tr *obs.Trace

	// Scratch that lets Set and Remove run as a one-op transaction
	// without allocating (arguments to the tower and the hooks escape).
	op1  [1]TxnOp
	rm1  [1]bool
	eff1 [1]CommitOp
}

// keepOnly is the effective-op list of a one-op body; read-only.
var keepOnly = []int{0}

// Init opens the session on b over tw. With a KV history attached to b
// the session records every commit and snapshot walk into it.
func (k *TowerSession) Init(b *StoreBase, tw Tower) {
	b.sessions.Add(1)
	k.b, k.tw = b, tw
	if b.hist != nil {
		k.crec = b.hist.ThreadRec()
	}
}

// SetTrace implements TxnSession: write paths stamp lock-wait (the
// tower's writer locks), commit and WAL-append spans into tr until
// cleared.
func (k *TowerSession) SetTrace(tr *obs.Trace) { k.tr = tr }

// ThreadID implements TxnSession.
func (k *TowerSession) ThreadID() int { return k.tw.ThreadID() }

// Close implements Session.
func (k *TowerSession) Close() {
	k.tw.Close()
	k.b.sessions.Add(-1)
}

// Get implements Session.
func (k *TowerSession) Get(key string) (string, bool) { return k.tw.Get(key) }

// Set implements Session.
func (k *TowerSession) Set(key, value string) {
	k.op1[0] = TxnOp{Key: key, Value: value}
	k.commit(k.op1[:], k.rm1[:], false)
}

// Remove implements Session.
func (k *TowerSession) Remove(key string) bool {
	k.op1[0], k.rm1[0] = TxnOp{Del: true, Key: key}, false
	k.commit(k.op1[:], k.rm1[:], false)
	return k.rm1[0]
}

// ApplyTxn implements TxnSession: every effective op runs inside ONE
// Execute body — every touched key TryLocked into one write set, one
// commit timestamp across all of them — so readers observe all of the
// transaction or none of it. removed[i] is per original op; superseded
// ops (compressTxn) report false.
func (k *TowerSession) ApplyTxn(ops []TxnOp) []bool {
	removed := make([]bool, len(ops))
	if len(ops) > 0 {
		k.commit(ops, removed, true)
	}
	return removed
}

// commit is the one write path: Set and Remove are the one-op case
// (group false: session scratch, per-op hook), ApplyTxn the general one
// (group true: delivered to the TxnHook as one call when installed).
// Everything after Apply runs under the tower's writer locks, so for any
// key history tickets and hook calls are in commit order.
func (k *TowerSession) commit(ops []TxnOp, removed []bool, group bool) {
	tw, tr := k.tw, k.tr
	keep, eff := keepOnly, k.eff1[:0]
	if group {
		keep = compressTxn(ops)
		eff = make([]CommitOp, 0, len(keep))
	}
	var t0 int64
	if tr != nil {
		t0 = obs.Now()
	}
	tw.Lock(ops, keep)
	defer tw.Unlock()
	if tr != nil {
		tr.EndStage(obs.StageLockWait, t0)
		t0 = obs.Now()
	}
	cts := tw.Apply(ops, keep, removed)
	if tr != nil {
		tr.EndStage(obs.StageCommit, t0)
	}
	for _, i := range keep {
		op := ops[i]
		if op.Del && !removed[i] {
			continue // no-op delete: nothing committed for this key
		}
		eff = append(eff, CommitOp{TS: cts, Del: op.Del, Key: op.Key, Value: op.Value})
	}
	if len(eff) == 0 {
		return
	}
	if k.crec != nil {
		k.record(eff)
	}
	k.deliver(eff, group)
}

// deliver hands committed ops to the hooks: transaction groups go to the
// TxnHook as one call when installed, everything else to the per-op
// hook. With no hook there is no WAL-append span: the time is a few ns
// of no-op calls.
func (k *TowerSession) deliver(eff []CommitOp, group bool) {
	b, tr := k.b, k.tr
	var t0 int64
	if tr != nil {
		t0 = obs.Now()
	}
	switch {
	case group && b.txnHook != nil:
		b.txnHook(eff)
	case b.hook != nil:
		for _, op := range eff {
			b.hook(op)
		}
	default:
		return
	}
	if tr != nil {
		tr.EndStage(obs.StageWALAppend, t0)
	}
}

// ForEach implements Session: ForEachPrefix with the empty prefix.
func (k *TowerSession) ForEach(fn func(key, value string) bool) { k.ForEachPrefix("", fn) }

// ForEachPrefix implements Session: the tower's prefix walk, recorded
// as an unordered prefix walk.
func (k *TowerSession) ForEachPrefix(prefix string, fn func(key, value string) bool) {
	k.scan(prefix, "", check.FlagPrefix, func(visit func(key, value string) bool) { k.tw.Walk(prefix, visit) }, fn)
}

// Scan is an ordered build's range read over lo <= key <= hi: walk runs
// the tower's ascending or descending walk, passing visit each pair.
func (k *TowerSession) Scan(lo, hi string, desc bool, walk func(visit func(key, value string) bool), fn func(key, value string) bool) {
	var flags uint8
	if desc {
		flags = check.FlagRev
	}
	k.scan(lo, hi, flags, walk, fn)
}

// scan is every snapshot read: ONE read section around one tower walk,
// which stops as soon as fn does. With a KV history attached the walk
// is bracketed: KVRangeBegin before its first load (a write ticketed
// earlier was published before the walk began), one observation per
// pair in fn's order, and KVRangeEnd, partial when fn stopped it.
func (k *TowerSession) scan(lo, hi string, flags uint8, walk func(visit func(key, value string) bool), fn func(key, value string) bool) {
	k.tw.ReadLock()
	defer k.tw.ReadUnlock()
	if k.crec == nil {
		walk(fn)
		return
	}
	crec, hist := k.crec, k.b.hist
	crec.KVRangeBegin(k.tw.SnapshotTS(), hist.KeyID(lo), hist.KeyID(hi), flags)
	stopped := false
	walk(func(key, val string) bool {
		crec.KVRangeObs(hist.KeyID(key), check.ValueHash(val))
		stopped = !fn(key, val)
		return !stopped
	})
	crec.KVRangeEnd(stopped)
}

// record publishes committed ops into the KV history, as one
// transaction when there are several. Callers are still inside the
// commit's writer locks, so ticket order equals commit order per key —
// the ordering CheckKV's stale/absence rules assume.
func (k *TowerSession) record(eff []CommitOp) {
	var txn uint64
	if len(eff) > 1 {
		txn = k.b.txnSeq.Add(1)
	}
	for _, op := range eff {
		var vh uint64
		if !op.Del {
			vh = check.ValueHash(op.Value)
		}
		k.crec.KVWrite(k.b.hist.KeyID(op.Key), op.TS, vh, txn, op.Del)
	}
}

// compressTxn reduces a transaction to its effective ops: the last op
// per key wins (a Set overwritten later in the same transaction, or a
// Del followed by a Set, never becomes a version — the transaction
// commits as if only its final op per key ran). Returned indices are in
// original op order. This keeps every key touched at most once inside
// the single Execute body, so the engine never sees an
// insert-then-free of the same unpublished node.
func compressTxn(ops []TxnOp) []int {
	last := make(map[string]int, len(ops))
	for i, op := range ops {
		last[op.Key] = i
	}
	keep := make([]int, 0, len(last))
	for i, op := range ops {
		if last[op.Key] == i {
			keep = append(keep, i)
		}
	}
	return keep
}
