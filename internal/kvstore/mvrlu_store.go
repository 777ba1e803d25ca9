package kvstore

import (
	"strings"
	"sync"
	"sync/atomic"

	"mvrlu/internal/core"
	"mvrlu/internal/obs"
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
// describes. The domain's read-outs (Stats, Watermark, Stalled, …) are
// the embedded core.Engine's.
type MVRLUStore struct {
	core.Engine
	d        *core.Domain[kvNode]
	slots    []mvSlot
	buckets  int
	sessions atomic.Int64
	hook     CommitHook
}

type mvSlot struct {
	mu    sync.Mutex
	roots []*core.Object[kvNode] // sentinel headers; trees hang off left
	_     [40]byte
}

// NewMVRLUStore creates an MV-RLU-backed store.
func NewMVRLUStore(slots, bucketsPerSlot int, opts core.Options) *MVRLUStore {
	d := core.NewDomain[kvNode](opts)
	s := &MVRLUStore{
		Engine:  d,
		d:       d,
		slots:   make([]mvSlot, slots),
		buckets: bucketsPerSlot,
	}
	for i := range s.slots {
		s.slots[i].roots = make([]*core.Object[kvNode], bucketsPerSlot)
		for b := range s.slots[i].roots {
			s.slots[i].roots[b] = core.NewObject(kvNode{})
		}
	}
	return s
}

// Name implements Store.
func (s *MVRLUStore) Name() string { return "mvrlu-kv" }

// Close implements Store.
func (s *MVRLUStore) Close() { s.d.Close() }

// Session implements Store.
func (s *MVRLUStore) Session() Session {
	s.sessions.Add(1)
	return &mvrluKVSession{s: s, h: s.d.Register()}
}

// NumSessions implements Store.
func (s *MVRLUStore) NumSessions() int { return int(s.sessions.Load()) }

// SetCommitHook implements commitHooker. The hook runs inside the
// per-slot lock right after Execute commits, with the write set's real
// MV-RLU commit timestamp — so for any key, hook order equals commit
// order, and the WAL's per-key log order needs no correction.
func (s *MVRLUStore) SetCommitHook(h CommitHook) { s.hook = h }

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
	sess := s.Session().(*mvrluKVSession)
	defer sess.Close()
	var objs []*core.Object[kvNode]
	sess.h.ReadLock()
	for si := range s.slots {
		for _, root := range s.slots[si].roots {
			objs = collectObjs(sess.h, sess.h.Deref(root).left, objs)
		}
	}
	sess.h.ReadUnlock()
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

type mvrluKVSession struct {
	s *MVRLUStore
	h *core.Thread[kvNode]
	// tr is the active request trace, set per batch through the
	// TraceCarrier capability; nil (the common case) costs writers one
	// pointer test per operation.
	tr *obs.Trace
}

// SetTrace implements TraceCarrier: write paths stamp lock-wait and
// engine-commit spans into tr until it is cleared.
func (k *mvrluKVSession) SetTrace(tr *obs.Trace) { k.tr = tr }

// Close implements Session: the engine thread is unregistered, removing
// it from the watermark scan so a retired pool handle cannot hold
// reclamation back.
func (k *mvrluKVSession) Close() {
	k.h.Unregister()
	k.s.sessions.Add(-1)
}

// ThreadID exposes the engine registry id backing this session — the id
// the stall detector reports when this session's snapshot pins the
// watermark.
func (k *mvrluKVSession) ThreadID() int { return k.h.ID() }

func (k *mvrluKVSession) locate(key string) (*mvSlot, *core.Object[kvNode]) {
	h := hashString(key)
	sl := &k.s.slots[slotOf(h, len(k.s.slots))]
	return sl, sl.roots[bucketOf(h, k.s.buckets)]
}

// findKV descends to key. left reports which child of parent holds node.
func findKV(h *core.Thread[kvNode], root *core.Object[kvNode], key string) (parent, node *core.Object[kvNode], left bool) {
	parent, left = root, true
	node = h.Deref(root).left
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

func (k *mvrluKVSession) Get(key string) (string, bool) {
	k.h.ReadLock()
	_, node, _ := findKV(k.h, k.locateRoot(key), key)
	var val string
	if node != nil {
		val = k.h.Deref(node).value
	}
	k.h.ReadUnlock()
	return val, node != nil
}

func (k *mvrluKVSession) locateRoot(key string) *core.Object[kvNode] {
	_, root := k.locate(key)
	return root
}

func (k *mvrluKVSession) Set(key, value string) {
	sl, root := k.locate(key)
	tr, t0 := k.tr, int64(0)
	if tr != nil {
		t0 = obs.Now()
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if tr != nil {
		tr.EndStage(obs.StageLockWait, t0)
		t0 = obs.Now()
	}
	k.h.Execute(func(h *core.Thread[kvNode]) bool {
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
	})
	if tr != nil {
		tr.EndStage(obs.StageCommit, t0)
		t0 = obs.Now()
	}
	if h := k.s.hook; h != nil {
		h(CommitOp{TS: k.h.LastCommitTS(), Key: key, Value: value})
		if tr != nil {
			tr.EndStage(obs.StageWALAppend, t0)
		}
	}
}

func (k *mvrluKVSession) Remove(key string) (removed bool) {
	sl, root := k.locate(key)
	tr, t0 := k.tr, int64(0)
	if tr != nil {
		t0 = obs.Now()
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if tr != nil {
		tr.EndStage(obs.StageLockWait, t0)
		t0 = obs.Now()
	}
	k.h.Execute(func(h *core.Thread[kvNode]) bool {
		parent, node, left := findKV(h, root, key)
		if node == nil {
			removed = false
			return true
		}
		nd := h.Deref(node)
		if nd.left == nil || nd.right == nil {
			cp, ok := h.TryLock(parent)
			if !ok {
				return false
			}
			cn, ok := h.TryLock(node)
			if !ok {
				return false
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
		} else {
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
				return false
			}
			cs, ok := h.TryLock(succ)
			if !ok {
				return false
			}
			cn.key, cn.value = cs.key, cs.value
			if sparent == node {
				cn.right = cs.right
			} else {
				csp, ok := h.TryLock(sparent)
				if !ok {
					return false
				}
				csp.left = cs.right
			}
			h.Free(succ)
		}
		removed = true
		return true
	})
	if tr != nil {
		tr.EndStage(obs.StageCommit, t0)
		t0 = obs.Now()
	}
	if removed {
		if h := k.s.hook; h != nil {
			h(CommitOp{TS: k.h.LastCommitTS(), Del: true, Key: key})
			if tr != nil {
				tr.EndStage(obs.StageWALAppend, t0)
			}
		}
	}
	return removed
}

// ForEach implements Session: one MV-RLU critical section yields a
// consistent snapshot of every tree without blocking writers.
func (k *mvrluKVSession) ForEach(fn func(key, value string) bool) {
	k.h.ReadLock()
	defer k.h.ReadUnlock()
	for si := range k.s.slots {
		for _, root := range k.s.slots[si].roots {
			if !k.walk(k.h.Deref(root).left, fn) {
				return
			}
		}
	}
}

// ForEachPrefix implements Session: a filtered snapshot scan in one
// MV-RLU critical section, concurrent with writers.
func (k *mvrluKVSession) ForEachPrefix(prefix string, fn func(key, value string) bool) {
	k.ForEach(func(key, value string) bool {
		if !strings.HasPrefix(key, prefix) {
			return true
		}
		return fn(key, value)
	})
}

func (k *mvrluKVSession) walk(o *core.Object[kvNode], fn func(key, value string) bool) bool {
	if o == nil {
		return true
	}
	d := k.h.Deref(o)
	return k.walk(d.left, fn) && fn(d.key, d.value) && k.walk(d.right, fn)
}
