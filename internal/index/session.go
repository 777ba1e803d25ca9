package index

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"mvrlu/internal/check"
	"mvrlu/internal/kvstore"
	"mvrlu/internal/obs"
)

// tower is the per-engine half of an engine-backed ordered build: the
// loops that Deref. The shared session crosses it a bounded number of
// times per operation — never per node — so each engine's walk stays
// monomorphic (a per-Deref seam, i.e. a skiplist generic over the
// engine, measured +14% on Get; DESIGN.md §12).
type tower interface {
	// apply runs ops[keep[j]] (tower height hgts[j] for an insert) inside
	// ONE Execute body — one write set, one commit — filling removed[i]
	// for the deletes, and returns the commit timestamp.
	apply(ops []kvstore.TxnOp, keep, hgts []int, removed []bool) (commitTS uint64)
	get(key string) (string, bool)
	// walk visits level-0 pairs with key >= lo (and <= hi when bounded)
	// in order inside the CALLER's critical section, reporting false when
	// fn stopped it early.
	walk(lo, hi string, bounded bool, fn func(key, value string) bool) bool
	// walkDesc is walk in descending order over lo <= key <= hi, same
	// critical-section contract.
	walkDesc(lo, hi string, fn func(key, value string) bool) bool
	readLock()
	readUnlock()
	// snapshotTS is the open critical section's entry timestamp.
	snapshotTS() uint64
	close()
}

// indexBase is the store half both engine builds embed: the writer
// mutex and what it guards, the hooks, and the KV history.
type indexBase struct {
	mu     sync.Mutex // index-wide writer lock; guards rng, txnSeq
	rng    *rand.Rand
	txnSeq uint64

	sessions atomic.Int64
	hook     kvstore.CommitHook
	txnHook  kvstore.TxnHook
	hist     *check.History
}

func newIndexBase() indexBase {
	return indexBase{rng: rand.New(rand.NewSource(0x51EED))}
}

// NumSessions implements Store.
func (b *indexBase) NumSessions() int { return int(b.sessions.Load()) }

// SetCommitHook implements commitHooker; same contract as the hash
// builds (runs under the writer lock, hook order equals commit order).
func (b *indexBase) SetCommitHook(h kvstore.CommitHook) { b.hook = h }

// SetTxnCommitHook implements txnHooker: committed ApplyTxn groups are
// delivered here as one call (and not to the per-op hook) when set.
func (b *indexBase) SetTxnCommitHook(h kvstore.TxnHook) { b.txnHook = h }

// AttachKVHistory makes every session created afterwards record
// KV-level events (writes, range walks) into h for CheckKV. Attach
// before creating sessions.
func (b *indexBase) AttachKVHistory(h *check.History) { b.hist = h }

// session is the whole kvstore.OrderedSession + TraceCarrier surface of
// both engine builds; everything engine-specific is behind tw.
type session struct {
	b    *indexBase
	tw   tower
	crec *check.ThreadRec
	// tr is the active request trace (kvstore.TraceCarrier); nil costs
	// writers one pointer test per operation.
	tr *obs.Trace

	// Scratch that lets Set and Remove run as a one-op transaction
	// without allocating (arguments to tw.apply and the hooks escape).
	op1  [1]kvstore.TxnOp
	hgt1 [1]int
	rm1  [1]bool
	eff1 [1]kvstore.CommitOp
}

// keepOnly is the effective-op list of a one-op body; read-only.
var keepOnly = []int{0}

func (k *session) init(b *indexBase, tw tower) {
	b.sessions.Add(1)
	k.b, k.tw = b, tw
	if b.hist != nil {
		k.crec = b.hist.ThreadRec()
	}
}

// SetTrace implements kvstore.TraceCarrier: write paths stamp lock-wait
// (the index-wide writer mutex), commit and WAL-append spans into tr
// until cleared.
func (k *session) SetTrace(tr *obs.Trace) { k.tr = tr }

// Close implements Session.
func (k *session) Close() {
	k.tw.close()
	k.b.sessions.Add(-1)
}

func (k *session) Get(key string) (string, bool) { return k.tw.get(key) }

func (k *session) Set(key, value string) {
	k.op1[0] = kvstore.TxnOp{Key: key, Value: value}
	k.commit(k.op1[:], k.rm1[:], false)
}

func (k *session) Remove(key string) bool {
	k.op1[0], k.rm1[0] = kvstore.TxnOp{Del: true, Key: key}, false
	k.commit(k.op1[:], k.rm1[:], false)
	return k.rm1[0]
}

// ApplyTxn implements OrderedSession: every effective op runs inside
// ONE Execute body — every touched key TryLocked into one write set,
// one commit timestamp across all of them — so readers observe all of
// the transaction or none of it. removed[i] is per original op;
// superseded ops (compressTxn) report false.
func (k *session) ApplyTxn(ops []kvstore.TxnOp) ([]bool, error) {
	removed := make([]bool, len(ops))
	if len(ops) > 0 {
		k.commit(ops, removed, true)
	}
	return removed, nil
}

// commit is the one write path: Set and Remove are the one-op case
// (group false: session scratch, per-op hook), ApplyTxn the general one
// (group true: delivered to the TxnHook as one call when installed).
// Everything after apply runs under the writer mutex, so history
// tickets and hook calls are in commit order.
func (k *session) commit(ops []kvstore.TxnOp, removed []bool, group bool) {
	keep, hgts, eff := keepOnly, k.hgt1[:], k.eff1[:0]
	if group {
		keep = compressTxn(ops)
		hgts = make([]int, len(keep))
		eff = make([]kvstore.CommitOp, 0, len(keep))
	}
	b, tr := k.b, k.tr
	var t0 int64
	if tr == nil {
		b.mu.Lock()
	} else {
		t0 = obs.Now()
		b.mu.Lock()
		tr.EndStage(obs.StageLockWait, t0)
		t0 = obs.Now()
	}
	defer b.mu.Unlock()
	for j, i := range keep {
		if !ops[i].Del {
			hgts[j] = randHeight(b.rng)
		}
	}
	cts := k.tw.apply(ops, keep, hgts, removed)
	if tr != nil {
		tr.EndStage(obs.StageCommit, t0)
		t0 = obs.Now()
	}
	for _, i := range keep {
		op := ops[i]
		if op.Del && !removed[i] {
			continue // no-op delete: nothing committed for this key
		}
		eff = append(eff, kvstore.CommitOp{TS: cts, Del: op.Del, Key: op.Key, Value: op.Value})
	}
	if len(eff) == 0 {
		return
	}
	var txn uint64
	if len(eff) > 1 {
		b.txnSeq++
		txn = b.txnSeq
	}
	recordWrites(k.crec, b.hist, eff, txn)
	deliver(b.hook, b.txnHook, eff, group)
	// No hook, no WAL-append span: the time is a few ns of no-op calls.
	if tr != nil && (b.hook != nil || b.txnHook != nil) {
		tr.EndStage(obs.StageWALAppend, t0)
	}
}

// recordWrites publishes the committed ops into the KV history. Callers
// are still inside the commit's exclusion (writer mutex, write lock), so
// ticket order equals commit order — the ordering CheckKV's
// stale/absence rules assume.
func recordWrites(crec *check.ThreadRec, hist *check.History, eff []kvstore.CommitOp, txn uint64) {
	if crec == nil || !check.Enabled() {
		return
	}
	for _, op := range eff {
		var vh uint64
		if !op.Del {
			vh = check.ValueHash(op.Value)
		}
		crec.KVWrite(hist.KeyID(op.Key), op.TS, vh, txn, op.Del)
	}
}

// deliver hands committed ops to the hooks: transaction groups go to
// the TxnHook as one call when installed, everything else to the per-op
// hook.
func deliver(hook kvstore.CommitHook, txnHook kvstore.TxnHook, eff []kvstore.CommitOp, group bool) {
	if group && txnHook != nil {
		txnHook(eff)
		return
	}
	if hook != nil {
		for _, op := range eff {
			hook(op)
		}
	}
}

// scan is every multi-key read: ONE snapshot critical section around
// one tower walk, ascending or descending, so either direction observes
// one timestamp and stops as soon as fn does. Bounded scans are the
// OrderedSession ranges and carry the KV-history bracketing (RangeBegin
// ticketed before the walk's first load, same reasoning as DerefTicket:
// any write ticketed before it was fully published before the walk
// began), observations recorded in the order fn sees them, as the
// checker's ordering rule expects.
func (k *session) scan(lo, hi string, bounded, desc bool, fn func(key, value string) bool) {
	k.tw.readLock()
	defer k.tw.readUnlock()
	rec := bounded && k.crec != nil && check.Enabled()
	visit := fn
	if rec {
		k.crec.KVRangeBegin(k.tw.snapshotTS(), k.b.hist.KeyID(lo), k.b.hist.KeyID(hi), desc)
		visit = func(key, val string) bool {
			k.crec.KVRangeObs(k.b.hist.KeyID(key), check.ValueHash(val))
			return fn(key, val)
		}
	}
	var complete bool
	if desc {
		complete = k.tw.walkDesc(lo, hi, visit)
	} else {
		complete = k.tw.walk(lo, hi, bounded, visit)
	}
	if rec {
		k.crec.KVRangeEnd(!complete)
	}
}

// RangeAscend implements OrderedSession.
func (k *session) RangeAscend(lo, hi string, fn func(key, value string) bool) {
	k.scan(lo, hi, true, false, fn)
}

// RangeDescend implements OrderedSession.
func (k *session) RangeDescend(lo, hi string, fn func(key, value string) bool) {
	k.scan(lo, hi, true, true, fn)
}

// ForEach implements Session: one snapshot walk of the whole list.
func (k *session) ForEach(fn func(key, value string) bool) {
	k.scan("", "", false, false, fn)
}

// ForEachPrefix implements Session: the ordered layout makes a prefix
// scan a seek + walk that stops at the first key past the prefix.
func (k *session) ForEachPrefix(prefix string, fn func(key, value string) bool) {
	k.scan(prefix, "", false, false, func(key, val string) bool {
		return strings.HasPrefix(key, prefix) && fn(key, val)
	})
}
