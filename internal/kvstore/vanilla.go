package kvstore

import (
	"strings"
	"sync"
	"sync/atomic"
)

// vNode is a plain BST node (stock build).
type vNode struct {
	key         string
	value       string
	left, right *vNode
}

// Vanilla is the stock CacheDB design: a global readers-writer lock
// serializing the database against structural races, plus per-slot
// mutexes for writers — the configuration whose global rwlock the paper
// identifies as the known scalability bottleneck. Its sessions are the
// shared TowerSession over a vanillaTower, with HooksAfterUnlock set.
type Vanilla struct {
	StoreBase
	global  sync.RWMutex
	slots   []vanillaSlot
	buckets int
	// walClock orders commit records for the WAL. It is stamped while the
	// global write lock is held, but the hooks run after unlock (a
	// blocking hook under the exclusive lock would deadlock against a
	// snapshot dump waiting for the read lock), so hook order can invert
	// timestamp order across racing writers — WALCutoff compensates.
	walClock atomic.Uint64
}

type vanillaSlot struct {
	mu    sync.Mutex
	trees []*vNode
	_     [40]byte
}

// NewVanilla creates a stock store.
func NewVanilla(slots, bucketsPerSlot int) *Vanilla {
	s := &Vanilla{
		StoreBase: StoreBase{HooksAfterUnlock: true},
		slots:     make([]vanillaSlot, slots),
		buckets:   bucketsPerSlot,
	}
	for i := range s.slots {
		s.slots[i].trees = make([]*vNode, bucketsPerSlot)
	}
	return s
}

// Name implements Store.
func (v *Vanilla) Name() string { return "vanilla" }

// Close implements Store.
func (v *Vanilla) Close() {}

// Session implements Store.
func (v *Vanilla) Session() Session {
	k := &TowerSession{}
	k.Init(&v.StoreBase, vanillaTower{v}, nil, nil)
	return k
}

// WALCutoff implements walClocker: every commit with ts ≤ the returned
// value stamped its timestamp while holding the global write lock, and
// that lock was released before this RLock could be acquired — so any
// store walk starting after this call observes all such commits. The WAL
// snapshot reads the cutoff before its dump walk and replay skips
// records at or below it.
func (v *Vanilla) WALCutoff() uint64 {
	v.global.RLock()
	defer v.global.RUnlock()
	return v.walClock.Load()
}

// vanillaTower implements Tower for the stock build: the writer lock is
// the global write lock, held across the whole body, a snapshot is the
// global read lock, and there is no per-session state.
type vanillaTower struct{ v *Vanilla }

func (t vanillaTower) Lock([]TxnOp, []int) { t.v.global.Lock() }
func (t vanillaTower) Unlock()             { t.v.global.Unlock() }
func (t vanillaTower) ReadLock()           { t.v.global.RLock() }
func (t vanillaTower) ReadUnlock()         { t.v.global.RUnlock() }
func (t vanillaTower) Close()              {}
func (t vanillaTower) ThreadID() int       { return -1 }

func (t vanillaTower) locate(key string) (*vanillaSlot, int) {
	h := hashString(key)
	sl := &t.v.slots[slotOf(h, len(t.v.slots))]
	return sl, bucketOf(h, t.v.buckets)
}

func (t vanillaTower) Get(key string) (string, bool) {
	t.v.global.RLock()
	defer t.v.global.RUnlock()
	sl, b := t.locate(key)
	n := sl.trees[b]
	for n != nil {
		switch {
		case key == n.key:
			return n.value, true
		case key < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	return "", false
}

// Apply runs the body and stamps one walClock tick for all of it.
func (t vanillaTower) Apply(ops []TxnOp, keep []int, removed []bool) uint64 {
	for _, i := range keep {
		if op := ops[i]; op.Del {
			removed[i] = t.del(op.Key)
		} else {
			t.set(op.Key, op.Value)
		}
	}
	return t.v.walClock.Add(1)
}

// set inserts or updates key under its slot lock.
func (t vanillaTower) set(key, value string) {
	sl, b := t.locate(key)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	link := &sl.trees[b]
	for *link != nil {
		n := *link
		switch {
		case key == n.key:
			n.value = value
			return
		case key < n.key:
			link = &n.left
		default:
			link = &n.right
		}
	}
	*link = &vNode{key: key, value: value}
}

// del removes key under its slot lock, reporting whether it existed.
func (t vanillaTower) del(key string) bool {
	sl, b := t.locate(key)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	link := &sl.trees[b]
	for *link != nil {
		n := *link
		switch {
		case key == n.key:
			*link = deleteRoot(n)
			return true
		case key < n.key:
			link = &n.left
		default:
			link = &n.right
		}
	}
	return false
}

// Walk visits every tree, filtering on prefix.
func (t vanillaTower) Walk(prefix string, fn func(key, value string) bool) {
	for si := range t.v.slots {
		for _, root := range t.v.slots[si].trees {
			if !walkVanilla(root, prefix, fn) {
				return
			}
		}
	}
}

func walkVanilla(n *vNode, prefix string, fn func(key, value string) bool) bool {
	if n == nil {
		return true
	}
	return walkVanilla(n.left, prefix, fn) &&
		(!strings.HasPrefix(n.key, prefix) || fn(n.key, n.value)) &&
		walkVanilla(n.right, prefix, fn)
}

// deleteRoot removes n from its subtree, returning the new root.
func deleteRoot(n *vNode) *vNode {
	if n.left == nil {
		return n.right
	}
	if n.right == nil {
		return n.left
	}
	// Splice the successor (leftmost of right subtree) into n's place.
	parentLink := &n.right
	succ := n.right
	for succ.left != nil {
		parentLink = &succ.left
		succ = succ.left
	}
	*parentLink = succ.right
	succ.left, succ.right = n.left, n.right
	return succ
}
