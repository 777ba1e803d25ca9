package index

import (
	"math/rand"
	"strings"
	"sync"

	"mvrlu/internal/kvstore"
)

// tower is an ordered build's kvstore.Tower plus what only the ordered
// builds have: the range walks.
type tower interface {
	kvstore.Tower
	// walk visits level-0 pairs with key >= lo (and <= hi when bounded)
	// in order inside the CALLER's critical section, until fn returns
	// false.
	walk(lo, hi string, bounded bool, fn func(key, value string) bool)
	// walkDesc is walk in descending order over lo <= key <= hi, same
	// critical-section contract.
	walkDesc(lo, hi string, fn func(key, value string) bool)
}

// skiplist is the store half both skiplist builds embed: the shared
// kvstore half (sessions, hooks, KV history), and the index writer mutex
// and what it guards.
type skiplist struct {
	kvstore.StoreBase
	mu  sync.Mutex // index-wide writer lock; guards rng
	rng *rand.Rand
}

func newSkiplist() skiplist {
	return skiplist{rng: rand.New(rand.NewSource(0x51EED))}
}

// writer is a skiplist tower's writer half: Lock takes the index writer
// mutex and draws a tower height for every insert of the body under it.
type writer struct {
	sl   *skiplist
	hgts []int // per kept op; 0 for a delete
	one  [1]int
}

func (w *writer) Lock(ops []kvstore.TxnOp, keep []int) {
	w.sl.mu.Lock()
	hgts := w.one[:0]
	for _, i := range keep {
		h := 0
		if !ops[i].Del {
			h = randHeight(w.sl.rng)
		}
		hgts = append(hgts, h)
	}
	w.hgts = hgts
}

func (w *writer) Unlock() { w.sl.mu.Unlock() }

// session is the shared kvstore.TowerSession plus the range walks.
type session struct {
	kvstore.TowerSession
	tw tower
}

// newSession opens a session on b over tw.
func newSession(b *kvstore.StoreBase, tw tower) *session {
	k := &session{tw: tw}
	k.Init(b, tw)
	return k
}

// RangeAscend implements OrderedSession.
func (k *session) RangeAscend(lo, hi string, fn func(key, value string) bool) {
	k.Scan(lo, hi, false, func(visit func(key, value string) bool) { k.tw.walk(lo, hi, true, visit) }, fn)
}

// RangeDescend implements OrderedSession.
func (k *session) RangeDescend(lo, hi string, fn func(key, value string) bool) {
	k.Scan(lo, hi, true, func(visit func(key, value string) bool) { k.tw.walkDesc(lo, hi, visit) }, fn)
}

// prefixed wraps fn for an ordered walk from prefix: it stops at the
// first key without the prefix, which in key order is past them all.
func prefixed(prefix string, fn func(key, value string) bool) func(key, value string) bool {
	return func(key, val string) bool {
		return strings.HasPrefix(key, prefix) && fn(key, val)
	}
}
