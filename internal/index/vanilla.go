package index

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mvrlu/internal/check"
	"mvrlu/internal/kvstore"
)

// VanillaIndex is the mutex-ordered baseline: a sorted key slice plus a
// value map behind one RWMutex. Readers (and ranges) hold the read
// lock for their whole walk — that IS the snapshot: nothing can commit
// while any reader is inside, which is exactly the global-rwlock
// bottleneck the engine builds exist to remove. The version clock
// stamps every commit under the write lock so WAL ordering and the KV
// checker get the same commit-order timestamps the engine builds
// provide.
type VanillaIndex struct {
	mu   sync.RWMutex
	keys []string
	vals map[string]string

	txnSeq uint64 // guarded by mu (exclusive)

	verClock atomic.Uint64
	sessions atomic.Int64
	hook     kvstore.CommitHook
	txnHook  kvstore.TxnHook
	hist     *check.History
}

// NewVanillaIndex creates an empty baseline ordered index.
func NewVanillaIndex() *VanillaIndex {
	return &VanillaIndex{vals: map[string]string{}}
}

// Name implements Store.
func (v *VanillaIndex) Name() string { return "vanilla-idx" }

// Close implements Store.
func (v *VanillaIndex) Close() {}

// Session implements Store.
func (v *VanillaIndex) Session() kvstore.Session {
	v.sessions.Add(1)
	k := &vanIdxSession{v: v}
	if v.hist != nil {
		k.crec = v.hist.ThreadRec()
	}
	return k
}

// NumSessions implements Store.
func (v *VanillaIndex) NumSessions() int { return int(v.sessions.Load()) }

// SetCommitHook implements commitHooker. Like the vanilla hash build,
// the hook fires after the write lock is released (a blocking hook
// under the exclusive lock would deadlock against a snapshot dump), so
// hook order can invert timestamp order — WALCutoff compensates.
func (v *VanillaIndex) SetCommitHook(h kvstore.CommitHook) { v.hook = h }

// SetTxnCommitHook implements txnHooker; same after-unlock caveat.
func (v *VanillaIndex) SetTxnCommitHook(h kvstore.TxnHook) { v.txnHook = h }

// AttachKVHistory makes sessions created afterwards record KV events.
func (v *VanillaIndex) AttachKVHistory(h *check.History) { v.hist = h }

// WALCutoff implements walClocker, same argument as Vanilla.WALCutoff:
// commits at or below the returned clock released the write lock before
// this RLock was granted.
func (v *VanillaIndex) WALCutoff() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.verClock.Load()
}

// search returns the sorted position of key and whether it is present.
// Caller holds mu (either mode).
func (v *VanillaIndex) search(key string) (int, bool) {
	i := sort.SearchStrings(v.keys, key)
	return i, i < len(v.keys) && v.keys[i] == key
}

// setLocked inserts or updates key. Caller holds the write lock.
func (v *VanillaIndex) setLocked(key, value string) {
	if i, ok := v.search(key); !ok {
		v.keys = append(v.keys, "")
		copy(v.keys[i+1:], v.keys[i:])
		v.keys[i] = key
	}
	v.vals[key] = value
}

// delLocked removes key, reporting whether it existed. Caller holds the
// write lock.
func (v *VanillaIndex) delLocked(key string) bool {
	i, ok := v.search(key)
	if !ok {
		return false
	}
	v.keys = append(v.keys[:i], v.keys[i+1:]...)
	delete(v.vals, key)
	return true
}

type vanIdxSession struct {
	v    *VanillaIndex
	crec *check.ThreadRec
}

// Close implements Session.
func (k *vanIdxSession) Close() { k.v.sessions.Add(-1) }

func (k *vanIdxSession) Get(key string) (string, bool) {
	k.v.mu.RLock()
	defer k.v.mu.RUnlock()
	val, ok := k.v.vals[key]
	return val, ok
}

func (k *vanIdxSession) Set(key, value string) {
	var rm [1]bool
	k.commit([]kvstore.TxnOp{{Key: key, Value: value}}, rm[:], keepOnly, false)
}

func (k *vanIdxSession) Remove(key string) bool {
	var rm [1]bool
	k.commit([]kvstore.TxnOp{{Del: true, Key: key}}, rm[:], keepOnly, false)
	return rm[0]
}

// ApplyTxn implements OrderedSession: one write-lock hold, one clock
// tick shared by every op — atomic by construction.
func (k *vanIdxSession) ApplyTxn(ops []kvstore.TxnOp) ([]bool, error) {
	removed := make([]bool, len(ops))
	if len(ops) > 0 {
		k.commit(ops, removed, compressTxn(ops), true)
	}
	return removed, nil
}

// commit is the one write path (Set and Remove are the one-op case):
// one write-lock hold, one clock tick, history recorded under the lock,
// hooks delivered after it is released (see SetCommitHook).
func (k *vanIdxSession) commit(ops []kvstore.TxnOp, removed []bool, keep []int, group bool) {
	v := k.v
	eff := make([]kvstore.CommitOp, 0, len(keep))
	v.mu.Lock()
	ts := v.verClock.Add(1)
	for _, i := range keep {
		op := ops[i]
		if op.Del {
			removed[i] = v.delLocked(op.Key)
			if !removed[i] {
				continue
			}
		} else {
			v.setLocked(op.Key, op.Value)
		}
		eff = append(eff, kvstore.CommitOp{TS: ts, Del: op.Del, Key: op.Key, Value: op.Value})
	}
	var txn uint64
	if len(eff) > 1 {
		v.txnSeq++
		txn = v.txnSeq
	}
	recordWrites(k.crec, v.hist, eff, txn)
	v.mu.Unlock()
	if len(eff) > 0 {
		deliver(v.hook, v.txnHook, eff, group)
	}
}

// rangeBounds returns the slice window [i, j) of keys with
// lo <= key <= hi. Caller holds the read lock.
func (v *VanillaIndex) rangeBounds(lo, hi string) (int, int) {
	i := sort.SearchStrings(v.keys, lo)
	j := sort.Search(len(v.keys), func(n int) bool { return v.keys[n] > hi })
	if j < i {
		j = i
	}
	return i, j
}

// RangeAscend implements OrderedSession.
func (k *vanIdxSession) RangeAscend(lo, hi string, fn func(key, value string) bool) {
	k.scan(lo, hi, false, fn)
}

// RangeDescend implements OrderedSession.
func (k *vanIdxSession) RangeDescend(lo, hi string, fn func(key, value string) bool) {
	k.scan(lo, hi, true, fn)
}

// scan walks the window [lo, hi] from either end: the read lock held
// across the walk is the snapshot. The mutateRangeUnpin tooth drops and
// retakes the lock mid-walk (re-seeking by key), tearing that guarantee.
func (k *vanIdxSession) scan(lo, hi string, desc bool, fn func(key, value string) bool) {
	v := k.v
	v.mu.RLock()
	defer v.mu.RUnlock()
	rec := k.crec != nil && check.Enabled()
	if rec {
		k.crec.KVRangeBegin(v.verClock.Load(), v.hist.KeyID(lo), v.hist.KeyID(hi), desc)
	}
	complete := true
	i, j := v.rangeBounds(lo, hi)
	for n := 0; i < j; n++ {
		if mutateRangeUnpin && n > 0 && n%4 == 0 {
			// Planted bug: release the snapshot guard mid-walk and
			// re-seek; writes landing in the gap become visible while the
			// walk still reports its original snapshot timestamp.
			from, to := v.keys[i], hi
			if desc {
				from, to = lo, v.keys[j-1]
			}
			v.mu.RUnlock()
			v.mu.RLock()
			i, j = v.rangeBounds(from, to)
			if i == j {
				break
			}
		}
		p := i
		if desc {
			p = j - 1
		}
		key := v.keys[p]
		if rec {
			k.crec.KVRangeObs(v.hist.KeyID(key), check.ValueHash(v.vals[key]))
		}
		if !fn(key, v.vals[key]) {
			complete = false
			break
		}
		if desc {
			j--
		} else {
			i++
		}
	}
	if rec {
		k.crec.KVRangeEnd(!complete)
	}
}

// ForEach implements Session.
func (k *vanIdxSession) ForEach(fn func(key, value string) bool) {
	k.v.mu.RLock()
	defer k.v.mu.RUnlock()
	for _, key := range k.v.keys {
		if !fn(key, k.v.vals[key]) {
			return
		}
	}
}

// ForEachPrefix implements Session: seek + bounded walk over the
// sorted keys.
func (k *vanIdxSession) ForEachPrefix(prefix string, fn func(key, value string) bool) {
	k.v.mu.RLock()
	defer k.v.mu.RUnlock()
	for i := sort.SearchStrings(k.v.keys, prefix); i < len(k.v.keys); i++ {
		key := k.v.keys[i]
		if !strings.HasPrefix(key, prefix) {
			return
		}
		if !fn(key, k.v.vals[key]) {
			return
		}
	}
}
