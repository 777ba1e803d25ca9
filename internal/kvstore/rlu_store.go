package kvstore

import (
	"strings"
	"sync/atomic"

	"mvrlu/internal/rlu"
)

// rkvNode is a record tree node under RLU.
type rkvNode struct {
	key         string
	value       string
	left, right *rlu.Object[rkvNode]
}

// RLUStore is the RLU port of CacheDB that the RLU paper describes and
// §6.4 reuses: no global readers-writer lock, per-slot locks for writers.
// MVRLUStore is its drop-in replacement: the same TowerSession over the
// same slot/bucket layout. Commit hooks are stamped with the RLU write
// clock of the commit (Thread.LastCommitTS), drawn inside the slot
// locks, so per-key hook order is commit order.
type RLUStore struct {
	StoreBase
	d       *rlu.Domain[rkvNode]
	locks   slotLocks
	roots   []atomic.Pointer[rlu.Object[rkvNode]]
	buckets int
}

// NewRLUStore creates an RLU-backed store.
func NewRLUStore(slots, bucketsPerSlot int) *RLUStore {
	return &RLUStore{
		d:       rlu.NewDomain[rkvNode](rlu.ClockGlobal),
		locks:   make(slotLocks, slots),
		roots:   make([]atomic.Pointer[rlu.Object[rkvNode]], slots*bucketsPerSlot),
		buckets: bucketsPerSlot,
	}
}

// Name implements Store.
func (s *RLUStore) Name() string { return "rlu-kv" }

// Close implements Store.
func (s *RLUStore) Close() { s.d.Close() }

// Stats exposes RLU counters.
func (s *RLUStore) Stats() rlu.Stats { return s.d.Stats() }

// Session implements Store.
func (s *RLUStore) Session() Session {
	t := &rluTable{s: s, h: s.d.Register(), slotWriter: slotWriter{locks: s.locks}}
	k := &TowerSession{}
	k.Init(&s.StoreBase, t)
	return k
}

// rluTable implements Tower over one RLU thread; every loop mirrors
// mvTable's (see the comments there).
type rluTable struct {
	s *RLUStore
	h *rlu.Thread[rkvNode]
	slotWriter
}

func (t *rluTable) ReadLock()          { t.h.ReadLock() }
func (t *rluTable) ReadUnlock()        { t.h.ReadUnlock() }
func (t *rluTable) SnapshotTS() uint64 { return t.h.SnapshotTS() }
func (t *rluTable) ThreadID() int      { return -1 }

// Close is a no-op: the RLU registry has no thread removal (the RLU
// design assumes a fixed thread set), so the handle merely stops being
// used.
func (t *rluTable) Close() {}

func (t *rluTable) root(h uint64) *atomic.Pointer[rlu.Object[rkvNode]] {
	return &t.s.roots[rootOf(h, len(t.locks), t.s.buckets)]
}

func rluFindKV(h *rlu.Thread[rkvNode], root *rlu.Object[rkvNode], key string) (parent, node *rlu.Object[rkvNode], left bool) {
	parent, left = root, true
	if root != nil {
		node = h.Deref(root).left
	}
	for node != nil {
		d := h.Deref(node)
		if d.key == key {
			return parent, node, left
		}
		parent = node
		if key < d.key {
			node, left = d.left, true
		} else {
			node, left = d.right, false
		}
	}
	return parent, nil, left
}

func (t *rluTable) Get(key string) (string, bool) {
	t.h.ReadLock()
	_, node, _ := rluFindKV(t.h, t.root(hashString(key)).Load(), key)
	var val string
	if node != nil {
		val = t.h.Deref(node).value
	}
	t.h.ReadUnlock()
	return val, node != nil
}

func (t *rluTable) Apply(ops []TxnOp, keep []int, removed []bool) uint64 {
	t.h.Execute(func(*rlu.Thread[rkvNode]) bool {
		for j, i := range keep {
			op, r := ops[i], t.root(t.hashes[j])
			if !op.Del {
				if !t.set(sentinel(r), op.Key, op.Value) {
					return false
				}
				continue
			}
			rm, ok := t.del(r.Load(), op.Key)
			if !ok {
				return false
			}
			removed[i] = rm
		}
		return true
	})
	return t.h.LastCommitTS()
}

func (t *rluTable) set(root *rlu.Object[rkvNode], key, value string) bool {
	h := t.h
	parent, node, left := rluFindKV(h, root, key)
	if node != nil {
		c, ok := h.TryLock(node)
		if !ok {
			return false
		}
		c.value = value
		return true
	}
	c, ok := h.TryLock(parent)
	if !ok {
		return false
	}
	n := rlu.NewObject(rkvNode{key: key, value: value})
	if left {
		c.left = n
	} else {
		c.right = n
	}
	return true
}

func (t *rluTable) del(root *rlu.Object[rkvNode], key string) (removed, ok bool) {
	h := t.h
	parent, node, left := rluFindKV(h, root, key)
	if node == nil {
		return false, true
	}
	nd := h.Deref(node)
	if nd.left == nil || nd.right == nil {
		cp, ok := h.TryLock(parent)
		if !ok {
			return false, false
		}
		cn, ok := h.TryLock(node)
		if !ok {
			return false, false
		}
		child := cn.left
		if child == nil {
			child = cn.right
		}
		if left {
			cp.left = child
		} else {
			cp.right = child
		}
		h.Free(node)
		return true, true
	}
	sparent, succ := node, nd.right
	for {
		sd := h.Deref(succ)
		if sd.left == nil {
			break
		}
		sparent, succ = succ, sd.left
	}
	cn, ok := h.TryLock(node)
	if !ok {
		return false, false
	}
	cs, ok := h.TryLock(succ)
	if !ok {
		return false, false
	}
	cn.key, cn.value = cs.key, cs.value
	if sparent == node {
		cn.right = cs.right
	} else {
		csp, ok := h.TryLock(sparent)
		if !ok {
			return false, false
		}
		csp.left = cs.right
	}
	h.Free(succ)
	return true, true
}

func (t *rluTable) Walk(prefix string, fn func(key, value string) bool) {
	for i := range t.s.roots {
		if root := t.s.roots[i].Load(); root != nil && !t.walk(t.h.Deref(root).left, prefix, fn) {
			return
		}
	}
}

func (t *rluTable) walk(o *rlu.Object[rkvNode], prefix string, fn func(key, value string) bool) bool {
	if o == nil {
		return true
	}
	d := t.h.Deref(o)
	return t.walk(d.left, prefix, fn) &&
		(!strings.HasPrefix(d.key, prefix) || fn(d.key, d.value)) &&
		t.walk(d.right, prefix, fn)
}
