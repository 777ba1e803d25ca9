package index

import (
	"math/rand"
	"strings"
	"sync"

	"mvrlu/internal/check"
	"mvrlu/internal/kvstore"
)

// tower is an ordered build's kvstore.Tower plus what only the ordered
// builds have: the range walks and the snapshot timestamp they record.
type tower interface {
	kvstore.Tower
	// walk visits level-0 pairs with key >= lo (and <= hi when bounded)
	// in order inside the CALLER's critical section, reporting false when
	// fn stopped it early.
	walk(lo, hi string, bounded bool, fn func(key, value string) bool) bool
	// walkDesc is walk in descending order over lo <= key <= hi, same
	// critical-section contract.
	walkDesc(lo, hi string, fn func(key, value string) bool) bool
	// snapshotTS is the open critical section's entry timestamp.
	snapshotTS() uint64
}

// skiplist is the store half both skiplist builds embed: the shared
// kvstore half (sessions, hooks), the index writer mutex and what it
// guards, and the KV history.
type skiplist struct {
	kvstore.StoreBase
	mu   sync.Mutex // index-wide writer lock; guards rng
	rng  *rand.Rand
	hist *check.History
}

func newSkiplist() skiplist {
	return skiplist{rng: rand.New(rand.NewSource(0x51EED))}
}

// AttachKVHistory makes every session created afterwards record
// KV-level events (writes, range walks) into h for CheckKV. Attach
// before creating sessions.
func (b *skiplist) AttachKVHistory(h *check.History) { b.hist = h }

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

// session is the shared kvstore.TowerSession plus the range walks, with
// the KV-history recording the checker needs.
type session struct {
	kvstore.TowerSession
	tw   tower
	crec *check.ThreadRec
	hist *check.History
}

// init opens the session over tw; with hist non-nil it records into it.
func (k *session) init(b *kvstore.StoreBase, hist *check.History, tw tower) {
	k.tw = tw
	if hist != nil {
		k.crec, k.hist = hist.ThreadRec(), hist
	}
	k.Init(b, tw, k.crec, k.hist)
}

// scan is every range read: ONE snapshot critical section around one
// tower walk, ascending or descending, so either direction observes one
// timestamp and stops as soon as fn does. With a KV history attached
// the walk is bracketed (RangeBegin ticketed before the walk's first
// load, same reasoning as DerefTicket: any write ticketed before it was
// fully published before the walk began), observations recorded in the
// order fn sees them, as the checker's ordering rule expects.
func (k *session) scan(lo, hi string, desc bool, fn func(key, value string) bool) {
	k.tw.ReadLock()
	defer k.tw.ReadUnlock()
	visit := fn
	if k.crec != nil {
		k.crec.KVRangeBegin(k.tw.snapshotTS(), k.hist.KeyID(lo), k.hist.KeyID(hi), desc)
		visit = func(key, val string) bool {
			k.crec.KVRangeObs(k.hist.KeyID(key), check.ValueHash(val))
			return fn(key, val)
		}
	}
	var complete bool
	if desc {
		complete = k.tw.walkDesc(lo, hi, visit)
	} else {
		complete = k.tw.walk(lo, hi, true, visit)
	}
	if k.crec != nil {
		k.crec.KVRangeEnd(!complete)
	}
}

// RangeAscend implements OrderedSession.
func (k *session) RangeAscend(lo, hi string, fn func(key, value string) bool) {
	k.scan(lo, hi, false, fn)
}

// RangeDescend implements OrderedSession.
func (k *session) RangeDescend(lo, hi string, fn func(key, value string) bool) {
	k.scan(lo, hi, true, fn)
}

// prefixed wraps fn for an ordered walk from prefix: it stops at the
// first key without the prefix, which in key order is past them all.
func prefixed(prefix string, fn func(key, value string) bool) func(key, value string) bool {
	return func(key, val string) bool {
		return strings.HasPrefix(key, prefix) && fn(key, val)
	}
}
