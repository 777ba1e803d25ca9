package index

import (
	"sort"
	"sync"

	"mvrlu/internal/kvstore"
)

// VanillaIndex is the mutex-ordered baseline: a sorted key slice plus a
// value map behind one RWMutex. Readers (and ranges) hold the read
// lock for their whole walk — that IS the snapshot: nothing can commit
// while any reader is inside, which is exactly the global-rwlock
// bottleneck the engine builds exist to remove. Writers serialize on
// wmu, the counterpart of the skiplists' writer mutex, and take mu for
// writing only inside Apply, around the body; the commit hooks run
// under wmu alone. The version clock stamps every commit under the
// write lock so WAL ordering and the KV checker get the same
// commit-order timestamps the engine builds provide. Its sessions are
// the shared session over a vanIdxTower.
type VanillaIndex struct {
	kvstore.StoreBase
	wmu  sync.Mutex // writer lock, held from Lock to Unlock
	mu   sync.RWMutex
	keys []string
	vals map[string]string

	verClock uint64 // guarded by mu
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
	return newSession(&v.StoreBase, vanIdxTower{v})
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

// window returns the slice window [i, j) of keys with key >= lo (and
// <= hi when bounded). Caller holds the read lock.
func (v *VanillaIndex) window(lo, hi string, bounded bool) (int, int) {
	i, j := sort.SearchStrings(v.keys, lo), len(v.keys)
	if bounded {
		j = max(i, sort.Search(len(v.keys), func(n int) bool { return v.keys[n] > hi }))
	}
	return i, j
}

// vanIdxTower implements tower for the baseline: the writer lock is
// wmu, Apply is the body under the write lock, and a snapshot is the
// read lock.
type vanIdxTower struct{ v *VanillaIndex }

func (t vanIdxTower) Lock([]kvstore.TxnOp, []int) { t.v.wmu.Lock() }
func (t vanIdxTower) Unlock()                     { t.v.wmu.Unlock() }
func (t vanIdxTower) ReadLock()                   { t.v.mu.RLock() }
func (t vanIdxTower) ReadUnlock()                 { t.v.mu.RUnlock() }
func (t vanIdxTower) Close()                      {}
func (t vanIdxTower) ThreadID() int               { return -1 }
func (t vanIdxTower) SnapshotTS() uint64          { return t.v.verClock }

func (t vanIdxTower) Get(key string) (string, bool) {
	t.v.mu.RLock()
	defer t.v.mu.RUnlock()
	val, ok := t.v.vals[key]
	return val, ok
}

// Apply runs the body under the write lock and stamps one version-clock
// tick for all of it: atomic by construction.
func (t vanIdxTower) Apply(ops []kvstore.TxnOp, keep []int, removed []bool) uint64 {
	t.v.mu.Lock()
	defer t.v.mu.Unlock()
	for _, i := range keep {
		if op := ops[i]; op.Del {
			removed[i] = t.v.delLocked(op.Key)
		} else {
			t.v.setLocked(op.Key, op.Value)
		}
	}
	t.v.verClock++
	return t.v.verClock
}

func (t vanIdxTower) Walk(prefix string, fn func(key, value string) bool) {
	t.scan(prefix, "", false, false, prefixed(prefix, fn))
}

func (t vanIdxTower) walk(lo, hi string, bounded bool, fn func(key, value string) bool) {
	t.scan(lo, hi, bounded, false, fn)
}

func (t vanIdxTower) walkDesc(lo, hi string, fn func(key, value string) bool) {
	t.scan(lo, hi, true, true, fn)
}

// scan walks the window from either end inside the caller's read lock.
// The mutateRangeUnpin tooth drops and retakes the lock mid-walk
// (re-seeking by key), tearing the snapshot.
func (t vanIdxTower) scan(lo, hi string, bounded, desc bool, fn func(key, value string) bool) {
	v := t.v
	i, j := v.window(lo, hi, bounded)
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
			i, j = v.window(from, to, bounded)
			if i == j {
				break
			}
		}
		p := i
		if desc {
			p = j - 1
		}
		if key := v.keys[p]; !fn(key, v.vals[key]) {
			return
		}
		if desc {
			j--
		} else {
			i++
		}
	}
}
