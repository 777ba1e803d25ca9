package index

import (
	"mvrlu/internal/kvstore"
	"mvrlu/internal/rlu"
)

// rNode mirrors mvNode for the single-version RLU engine.
type rNode struct {
	key  string
	val  string
	h    int
	next [maxHeight]*rlu.Object[rNode]
}

// RLUIndex is the RLU port of the ordered index — same skiplist, same
// single writer mutex, but commits write back synchronously inside
// ReadUnlock (rlu_synchronize on the critical path). Because the commit
// completes before the mutex releases, the next writer's traversal sees
// only masters and needs no ambiguity reasoning at all. RLU readers run
// at the read clock they sampled at entry; that clock is the recorded
// snapshot timestamp (boundary 0 for CheckKV).
type RLUIndex struct {
	skiplist
	d    *rlu.Domain[rNode]
	head *rlu.Object[rNode]
}

// NewRLUIndex creates an empty RLU ordered index (global clock, the
// vanilla RLU of the paper's comparison).
func NewRLUIndex() *RLUIndex {
	return &RLUIndex{
		skiplist: newSkiplist(),
		d:        rlu.NewDomain[rNode](rlu.ClockGlobal),
		head:     rlu.NewObject(rNode{h: maxHeight}),
	}
}

// Name implements Store.
func (s *RLUIndex) Name() string { return "rlu-idx" }

// Close implements Store.
func (s *RLUIndex) Close() { s.d.Close() }

// Stats exposes domain counters.
func (s *RLUIndex) Stats() rlu.Stats { return s.d.Stats() }

// Session implements Store.
func (s *RLUIndex) Session() kvstore.Session {
	return newSession(&s.StoreBase, &rluTower{head: s.head, h: s.d.Register(), writer: writer{sl: &s.skiplist}})
}

// rluTower implements tower over one RLU thread; every loop mirrors
// mvTower's (see the comments there).
type rluTower struct {
	head *rlu.Object[rNode]
	h    *rlu.Thread[rNode]
	writer
}

func (t *rluTower) ReadLock()          { t.h.ReadLock() }
func (t *rluTower) ReadUnlock()        { t.h.ReadUnlock() }
func (t *rluTower) SnapshotTS() uint64 { return t.h.SnapshotTS() }
func (t *rluTower) Close()             {}
func (t *rluTower) ThreadID() int      { return -1 }

func (t *rluTower) findPreds(key string, preds *[maxHeight]*rlu.Object[rNode]) (*rlu.Object[rNode], *rNode) {
	return t.seek(key, t.head, maxHeight, preds)
}

func (t *rluTower) seek(key string, x *rlu.Object[rNode], top int, preds *[maxHeight]*rlu.Object[rNode]) (*rlu.Object[rNode], *rNode) {
	h := t.h
	xd := h.Deref(x)
	var at *rlu.Object[rNode]
	var ad *rNode
	for lvl := top - 1; lvl >= 0; lvl-- {
		for {
			at = xd.next[lvl]
			if at == nil {
				ad = nil
				break
			}
			if ad = h.Deref(at); ad.key >= key {
				break
			}
			x, xd = at, ad
		}
		preds[lvl] = x
	}
	return at, ad
}

func (t *rluTower) set(key, val string, hgt int) bool {
	h := t.h
	var preds [maxHeight]*rlu.Object[rNode]
	cand, cd := t.findPreds(key, &preds)
	if cand != nil && cd.key == key {
		c, ok := h.TryLock(cand)
		if !ok {
			return false
		}
		c.val = val
		return true
	}
	var cps [maxHeight]*rNode
	for l := 0; l < hgt; l++ {
		cp, ok := h.TryLock(preds[l])
		if !ok {
			return false
		}
		cps[l] = cp
	}
	var n rNode
	n.key, n.val, n.h = key, val, hgt
	for l := 0; l < hgt; l++ {
		n.next[l] = cps[l].next[l]
	}
	obj := rlu.NewObject(n)
	for l := 0; l < hgt; l++ {
		cps[l].next[l] = obj
	}
	return true
}

func (t *rluTower) del(key string) (removed, ok bool) {
	h := t.h
	var preds [maxHeight]*rlu.Object[rNode]
	cand, cd := t.findPreds(key, &preds)
	if cand == nil || cd.key != key {
		return false, true
	}
	hgt := cd.h
	cn, lok := h.TryLock(cand)
	if !lok {
		return false, false
	}
	for l := 0; l < hgt; l++ {
		cp, lok := h.TryLock(preds[l])
		if !lok {
			return false, false
		}
		cp.next[l] = cn.next[l]
	}
	h.Free(cand)
	return true, true
}

func (t *rluTower) Apply(ops []kvstore.TxnOp, keep []int, removed []bool) uint64 {
	t.h.Execute(func(*rlu.Thread[rNode]) bool {
		for j, i := range keep {
			op := ops[i]
			if !op.Del {
				if !t.set(op.Key, op.Value, t.hgts[j]) {
					return false
				}
				continue
			}
			rm, ok := t.del(op.Key)
			if !ok {
				return false
			}
			removed[i] = rm
		}
		return true
	})
	return t.h.LastCommitTS()
}

func (t *rluTower) Get(key string) (string, bool) {
	t.h.ReadLock()
	defer t.h.ReadUnlock()
	var preds [maxHeight]*rlu.Object[rNode]
	cand, d := t.findPreds(key, &preds)
	if cand == nil || d.key != key {
		return "", false
	}
	return d.val, true
}

func (t *rluTower) Walk(prefix string, fn func(key, value string) bool) {
	t.walk(prefix, "", false, prefixed(prefix, fn))
}

func (t *rluTower) walk(lo, hi string, bounded bool, fn func(key, value string) bool) {
	h := t.h
	var preds [maxHeight]*rlu.Object[rNode]
	x, _ := t.findPreds(lo, &preds)
	for n := 0; x != nil; n++ {
		if mutateRangeUnpin && n > 0 && n%4 == 0 {
			h.ReadUnlock()
			h.ReadLock()
		}
		d := h.Deref(x)
		if bounded && d.key > hi {
			break
		}
		if !fn(d.key, d.val) {
			return
		}
		x = d.next[0]
	}
}

func (t *rluTower) walkDesc(lo, hi string, fn func(key, value string) bool) {
	if lo > hi {
		return
	}
	h := t.h
	var preds [maxHeight]*rlu.Object[rNode]
	if at, d := t.findPreds(hi, &preds); at != nil && d.key == hi && !fn(d.key, d.val) {
		return
	}
	for n := 0; preds[0] != t.head; n++ {
		if mutateRangeUnpin && n > 0 && n%4 == 0 {
			h.ReadUnlock()
			h.ReadLock()
		}
		d := h.Deref(preds[0])
		if d.key < lo {
			break
		}
		if !fn(d.key, d.val) {
			return
		}
		from := t.head
		if d.h < maxHeight {
			from = preds[d.h]
		}
		t.seek(d.key, from, d.h, &preds)
	}
}
