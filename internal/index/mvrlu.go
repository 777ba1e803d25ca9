package index

import (
	"mvrlu/internal/core"
	"mvrlu/internal/kvstore"
)

// mvNode is one skiplist node under MV-RLU: key, value, and the tower.
// The whole node is one engine object, so TryLock copies the tower with
// the payload and a splice is an ordinary field store on the copy.
type mvNode struct {
	key  string
	val  string
	h    int
	next [maxHeight]*core.Object[mvNode]
}

// MVIndex is the MV-RLU ordered index: a skiplist whose nodes are
// engine objects. Readers (Get, ranges, ForEach) run lock-free inside
// snapshot critical sections; writers serialize on mu (see the package
// comment) and commit through Execute, so every mutation — including a
// whole ApplyTxn body — is one write set with one commit timestamp.
//
// Why a single writer mutex is enough for correctness and not just
// convenience: a writer's traversal may be stale only about objects
// whose latest commit falls inside the ORDO ambiguity window of its
// snapshot — and those are exactly the objects the previous (serialized)
// writer locked, so this writer's TryLock on any pred it must modify
// fails the write-latest check and Execute retries at a fresh
// timestamp. A traversal that reaches TryLock success therefore saw the
// latest committed version of everything it locks.
//
// The domain's read-outs (Stats, Watermark, Stalled, …) are the embedded
// core.Engine's.
type MVIndex struct {
	skiplist
	core.Engine
	d    *core.Domain[mvNode]
	head *core.Object[mvNode] // sentinel, height maxHeight, key unused
}

// NewMVIndex creates an empty MV-RLU ordered index with default engine
// options.
func NewMVIndex() *MVIndex {
	return NewMVIndexOpts(core.DefaultOptions())
}

// NewMVIndexOpts creates an empty index over a domain with opts.
func NewMVIndexOpts(opts core.Options) *MVIndex {
	d := core.NewDomain[mvNode](opts)
	return &MVIndex{
		skiplist: newSkiplist(),
		Engine:   d,
		d:        d,
		head:     core.NewObject(mvNode{h: maxHeight}),
	}
}

// Name implements Store.
func (s *MVIndex) Name() string { return "mvrlu-idx" }

// Close implements Store.
func (s *MVIndex) Close() { s.d.Close() }

// Session implements Store.
func (s *MVIndex) Session() kvstore.Session {
	return newSession(&s.StoreBase, &mvTower{head: s.head, h: s.d.Register(), writer: writer{sl: &s.skiplist}})
}

// mvTower implements tower over one registered engine thread.
type mvTower struct {
	head *core.Object[mvNode]
	h    *core.Thread[mvNode]
	writer
}

func (t *mvTower) ReadLock()          { t.h.ReadLock() }
func (t *mvTower) ReadUnlock()        { t.h.ReadUnlock() }
func (t *mvTower) SnapshotTS() uint64 { return t.h.SnapshotTS() }
func (t *mvTower) Close()             { t.h.Unregister() }
func (t *mvTower) ThreadID() int      { return t.h.ID() }

// findPreds descends the skiplist to key, filling preds[l] with the
// rightmost node at level l whose key is < key (the head sentinel
// counts as -inf), and returns the first level-0 node with key >= key
// with its payload (nil, nil when past the end). Caller must be inside a
// critical section.
func (t *mvTower) findPreds(key string, preds *[maxHeight]*core.Object[mvNode]) (*core.Object[mvNode], *mvNode) {
	return t.seek(key, t.head, maxHeight, preds)
}

// seek is findPreds started at x on level top-1, filling preds[:top]; x
// must be the head or a node with key < key that is on level top-1.
// Each node is dereferenced once: its payload is kept while the search
// moves down a level.
func (t *mvTower) seek(key string, x *core.Object[mvNode], top int, preds *[maxHeight]*core.Object[mvNode]) (*core.Object[mvNode], *mvNode) {
	h := t.h
	xd := h.Deref(x)
	var at *core.Object[mvNode]
	var ad *mvNode
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

// set is one Set inside an open Execute body: update in place if key
// exists, else lock the preds up to hgt and link a fresh node. false
// asks Execute to retry at a fresh timestamp.
func (t *mvTower) set(key, val string, hgt int) bool {
	h := t.h
	var preds [maxHeight]*core.Object[mvNode]
	cand, cd := t.findPreds(key, &preds)
	if cand != nil && cd.key == key {
		c, ok := h.TryLock(cand)
		if !ok {
			return false
		}
		c.val = val
		return true
	}
	var cps [maxHeight]*mvNode
	for l := 0; l < hgt; l++ {
		cp, ok := h.TryLock(preds[l])
		if !ok {
			return false
		}
		cps[l] = cp
	}
	var n mvNode
	n.key, n.val, n.h = key, val, hgt
	for l := 0; l < hgt; l++ {
		n.next[l] = cps[l].next[l]
	}
	obj := core.NewObject(n)
	for l := 0; l < hgt; l++ {
		cps[l].next[l] = obj
	}
	return true
}

// del is one Delete inside an open Execute body: lock the node and
// every pred pointing at it, splice it out, free it. ok=false asks for
// a retry; removed reports whether the key existed.
func (t *mvTower) del(key string) (removed, ok bool) {
	h := t.h
	var preds [maxHeight]*core.Object[mvNode]
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

func (t *mvTower) Apply(ops []kvstore.TxnOp, keep []int, removed []bool) uint64 {
	t.h.Execute(func(*core.Thread[mvNode]) bool {
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

func (t *mvTower) Get(key string) (string, bool) {
	t.h.ReadLock()
	defer t.h.ReadUnlock()
	var preds [maxHeight]*core.Object[mvNode]
	cand, d := t.findPreds(key, &preds)
	if cand == nil || d.key != key {
		return "", false
	}
	return d.val, true
}

func (t *mvTower) Walk(prefix string, fn func(key, value string) bool) {
	t.walk(prefix, "", false, prefixed(prefix, fn))
}

// The mutateRangeUnpin re-pin is the planted checker tooth (see
// mutate_off.go), in both walks.
func (t *mvTower) walk(lo, hi string, bounded bool, fn func(key, value string) bool) {
	h := t.h
	var preds [maxHeight]*core.Object[mvNode]
	x, _ := t.findPreds(lo, &preds)
	for n := 0; x != nil; n++ {
		if mutateRangeUnpin && n > 0 && n%4 == 0 {
			// Planted bug: drop the snapshot pin mid-walk and re-enter at
			// a fresh timestamp while still advertising the original one.
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

// walkDesc seeks hi, then steps down by finger search: preds holds the
// predecessors of the key last visited, so the next node down is
// preds[0]. A node of height h is never a pred at level h or above, so
// after visiting it preds[h:] are still its predecessors and only the
// levels below h are searched again, from preds[h]. A step costs O(1)
// derefs expected — a few, against one for an ascending step — rather
// than a fresh O(log n) search.
func (t *mvTower) walkDesc(lo, hi string, fn func(key, value string) bool) {
	if lo > hi {
		return
	}
	h := t.h
	var preds [maxHeight]*core.Object[mvNode]
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
