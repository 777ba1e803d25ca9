package kvstore

import (
	"strings"
	"sync"
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
// shared TowerSession over a vanillaTower: a writer holds its slot locks
// from Lock to Unlock, as the engine builds do, and the global write
// lock only inside Apply, so its commit hooks run under the slot locks
// and never under a lock a reader needs.
type Vanilla struct {
	StoreBase
	global  sync.RWMutex
	locks   slotLocks
	roots   []*vNode // bucket trees, slot-major (rootOf)
	buckets int
	// clock stamps commits; ticked under the global write lock, read
	// under the read lock as a snapshot's timestamp.
	clock uint64
}

// NewVanilla creates a stock store.
func NewVanilla(slots, bucketsPerSlot int) *Vanilla {
	return &Vanilla{
		locks:   make(slotLocks, slots),
		roots:   make([]*vNode, slots*bucketsPerSlot),
		buckets: bucketsPerSlot,
	}
}

// Name implements Store.
func (v *Vanilla) Name() string { return "vanilla" }

// Close implements Store.
func (v *Vanilla) Close() {}

// Session implements Store.
func (v *Vanilla) Session() Session {
	k := &TowerSession{}
	k.Init(&v.StoreBase, &vanillaTower{v: v, slotWriter: slotWriter{locks: v.locks}})
	return k
}

// vanillaTower implements Tower for the stock build: the writer locks
// are the slots of a body's keys, Apply is the body under the global
// write lock, and a snapshot is the global read lock.
type vanillaTower struct {
	v *Vanilla
	slotWriter
}

func (t *vanillaTower) ReadLock()          { t.v.global.RLock() }
func (t *vanillaTower) ReadUnlock()        { t.v.global.RUnlock() }
func (t *vanillaTower) SnapshotTS() uint64 { return t.v.clock }
func (t *vanillaTower) Close()             {}
func (t *vanillaTower) ThreadID() int      { return -1 }

// root is the link to the bucket tree of a key hashing to h.
func (t *vanillaTower) root(h uint64) **vNode {
	return &t.v.roots[rootOf(h, len(t.locks), t.v.buckets)]
}

func (t *vanillaTower) Get(key string) (string, bool) {
	t.v.global.RLock()
	defer t.v.global.RUnlock()
	n := *t.root(hashString(key))
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

// Apply runs the body under the global write lock — the baseline's
// counterpart of an engine Execute — and ticks the clock once for all
// of it.
func (t *vanillaTower) Apply(ops []TxnOp, keep []int, removed []bool) uint64 {
	v := t.v
	v.global.Lock()
	defer v.global.Unlock()
	for j, i := range keep {
		link := t.root(t.hashes[j])
		if op := ops[i]; op.Del {
			removed[i] = vanillaDel(link, op.Key)
		} else {
			vanillaSet(link, op.Key, op.Value)
		}
	}
	v.clock++
	return v.clock
}

// vanillaSet inserts or updates key in the tree at link.
func vanillaSet(link **vNode, key, value string) {
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

// vanillaDel removes key from the tree at link, reporting whether it
// existed.
func vanillaDel(link **vNode, key string) bool {
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
func (t *vanillaTower) Walk(prefix string, fn func(key, value string) bool) {
	for _, root := range t.v.roots {
		if !walkVanilla(root, prefix, fn) {
			return
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
