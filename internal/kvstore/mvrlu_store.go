package kvstore

import (
	"strings"
	"sync/atomic"

	"mvrlu/internal/core"
)

// kvNode is a record tree node under MV-RLU.
type kvNode struct {
	key         string
	value       string
	left, right *core.Object[kvNode]
}

// MVRLUStore is the MV-RLU port of CacheDB: the global readers-writer
// lock is gone (reads are MV-RLU critical sections), and writers keep the
// per-slot lock for a fair comparison with the RLU port, exactly as §6.4
// describes. Its sessions are the shared TowerSession over an mvTable
// tower. The domain's read-outs (Stats, Watermark, Stalled, …) are the
// embedded core.Engine's.
type MVRLUStore struct {
	StoreBase
	core.Engine
	d       *core.Domain[kvNode]
	locks   slotLocks
	roots   []atomic.Pointer[core.Object[kvNode]] // bucket sentinels, slot-major; trees hang off left
	buckets int
}

// NewMVRLUStore creates an MV-RLU-backed store.
func NewMVRLUStore(slots, bucketsPerSlot int, opts core.Options) *MVRLUStore {
	d := core.NewDomain[kvNode](opts)
	return &MVRLUStore{
		Engine:  d,
		d:       d,
		locks:   make(slotLocks, slots),
		roots:   make([]atomic.Pointer[core.Object[kvNode]], slots*bucketsPerSlot),
		buckets: bucketsPerSlot,
	}
}

// Name implements Store.
func (s *MVRLUStore) Name() string { return "mvrlu-kv" }

// Close implements Store.
func (s *MVRLUStore) Close() { s.d.Close() }

// Session implements Store.
func (s *MVRLUStore) Session() Session {
	t := &mvTable{s: s, h: s.d.Register(), slotWriter: slotWriter{locks: s.locks}}
	k := &TowerSession{}
	k.Init(&s.StoreBase, t)
	return k
}

// ChainMetrics walks every tree at quiescence (no concurrent writers, no
// single-collector detector) and reports the number of records, the total
// committed versions chained on them above the reclamation watermark, and
// the longest such chain. It is the observable for reclamation lag: a
// pinned snapshot reader (long scan) holds the watermark down, so
// maxChain grows with writer churn while the pin lasts, and falls back
// once the pin is released and per-thread GC writes chains back. Measure
// while the pin is still held — once the watermark advances, versions
// below it no longer count (their slots may already be reused).
func (s *MVRLUStore) ChainMetrics() (records, versions, maxChain int) {
	h := s.d.Register()
	defer h.Unregister()
	var objs []*core.Object[kvNode]
	h.ReadLock()
	for i := range s.roots {
		if root := s.roots[i].Load(); root != nil {
			objs = collectObjs(h, h.Deref(root).left, objs)
		}
	}
	h.ReadUnlock()
	for _, o := range objs {
		n := s.d.ChainLen(o)
		records++
		versions += n
		if n > maxChain {
			maxChain = n
		}
	}
	return records, versions, maxChain
}

func collectObjs(h *core.Thread[kvNode], o *core.Object[kvNode], out []*core.Object[kvNode]) []*core.Object[kvNode] {
	if o == nil {
		return out
	}
	d := h.Deref(o)
	out = append(out, o)
	out = collectObjs(h, d.left, out)
	return collectObjs(h, d.right, out)
}

// mvTable implements Tower over one registered engine thread: the
// writer locks are the slots of a body's keys, and each key's bucket
// tree is updated inside the body's one Execute.
type mvTable struct {
	s *MVRLUStore
	h *core.Thread[kvNode]
	slotWriter
	late func() // mutateLateBucket's deferred sentinel store
}

func (t *mvTable) ReadLock()          { t.h.ReadLock() }
func (t *mvTable) ReadUnlock()        { t.h.ReadUnlock() }
func (t *mvTable) SnapshotTS() uint64 { return t.h.SnapshotTS() }
func (t *mvTable) ThreadID() int      { return t.h.ID() }

// Close unregisters the engine thread, removing it from the watermark
// scan so a retired pool handle cannot hold reclamation back.
func (t *mvTable) Close() { t.h.Unregister() }

// root holds the bucket sentinel of a key hashing to h (nil: empty).
func (t *mvTable) root(h uint64) *atomic.Pointer[core.Object[kvNode]] {
	return &t.s.roots[rootOf(h, len(t.locks), t.s.buckets)]
}

// sentinel is the tree a Set links into (see sentinel[O]); with
// mutateLateBucket a new one is stored only at Unlock.
func (t *mvTable) sentinel(r *atomic.Pointer[core.Object[kvNode]]) *core.Object[kvNode] {
	if mutateLateBucket && r.Load() == nil {
		s := new(core.Object[kvNode])
		t.late = func() { lateBucketGap(); r.Store(s) }
		return s
	}
	return sentinel(r)
}

func (t *mvTable) Unlock() {
	if mutateLateBucket && t.late != nil {
		t.late()
		t.late = nil
	}
	t.slotWriter.Unlock()
}

// findKV descends to key from its bucket's sentinel (nil: an empty
// bucket). left reports which child of parent holds node.
func findKV(h *core.Thread[kvNode], root *core.Object[kvNode], key string) (parent, node *core.Object[kvNode], left bool) {
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

func (t *mvTable) Get(key string) (string, bool) {
	t.h.ReadLock()
	_, node, _ := findKV(t.h, t.root(hashString(key)).Load(), key)
	var val string
	if node != nil {
		val = t.h.Deref(node).value
	}
	t.h.ReadUnlock()
	return val, node != nil
}

func (t *mvTable) Apply(ops []TxnOp, keep []int, removed []bool) uint64 {
	if mutateSplitBody && len(keep) > 1 {
		// Planted bug (mutate_off.go): two commits, splitBodyGap between.
		hashes := t.hashes
		t.hashes = hashes[:1]
		t.Apply(ops, keep[:1], removed)
		splitBodyGap()
		t.hashes = hashes[1:]
		return t.Apply(ops, keep[1:], removed)
	}
	t.h.Execute(func(*core.Thread[kvNode]) bool {
		for j, i := range keep {
			op, r := ops[i], t.root(t.hashes[j])
			if !op.Del {
				if !t.set(t.sentinel(r), op.Key, op.Value) {
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

// set is one Set inside an open Execute body: update in place if key
// exists, else link a fresh leaf. false asks Execute to retry.
func (t *mvTable) set(root *core.Object[kvNode], key, value string) bool {
	h := t.h
	parent, node, left := findKV(h, root, key)
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
	n := core.NewObject(kvNode{key: key, value: value})
	if left {
		c.left = n
	} else {
		c.right = n
	}
	return true
}

// del is one Delete inside an open Execute body. ok=false asks for a
// retry; removed reports whether the key existed.
func (t *mvTable) del(root *core.Object[kvNode], key string) (removed, ok bool) {
	h := t.h
	parent, node, left := findKV(h, root, key)
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

// Walk visits every tree in slot-major order, filtering on prefix: the
// hashed layout has no prefix to seek.
func (t *mvTable) Walk(prefix string, fn func(key, value string) bool) {
	for i := range t.s.roots {
		if root := t.s.roots[i].Load(); root != nil && !t.walk(t.h.Deref(root).left, prefix, fn) {
			return
		}
	}
}

func (t *mvTable) walk(o *core.Object[kvNode], prefix string, fn func(key, value string) bool) bool {
	if o == nil {
		return true
	}
	d := t.h.Deref(o)
	return t.walk(d.left, prefix, fn) &&
		(!strings.HasPrefix(d.key, prefix) || fn(d.key, d.value)) &&
		t.walk(d.right, prefix, fn)
}
