package db

import (
	"sync"
	"sync/atomic"

	"mvrlu/internal/clock"
)

// HekatonEngine is a simplified Hekaton-style MVCC scheme (Diaconu et
// al., SIGMOD 2013) with the two properties the paper's Figure 9
// analysis highlights as its bottlenecks: every transaction draws begin
// and commit timestamps from one global atomic counter, and version
// garbage collection must scan for the oldest active transaction.
// Writers install pending versions at the chain head (first-writer-wins:
// a second writer aborts); readers resolve against their begin timestamp
// (snapshot isolation, as configured in DBx1000's Hekaton port).
type HekatonEngine struct {
	clock   atomic.Uint64
	rows    []hekRecord
	commits atomic.Uint64
	aborts  atomic.Uint64

	sessions atomic.Pointer[[]*hekTx]
	mu       sync.Mutex
}

type hekRecord struct {
	head atomic.Pointer[hekVersion]
	_    [48]byte // avoid false sharing between adjacent records
}

// hekVersion is one row version. begin is the commit timestamp once the
// owner's commit has been copied into it; while pending, owner is the
// writing transaction's commit word (a clock.CommitWord every write of
// the transaction points at, left Pending if it aborts), which decides
// visibility: Hekaton's "begin field holds a transaction ID" case.
type hekVersion struct {
	begin atomic.Uint64 // commit ts; clock.Pending while pending
	owner *clock.CommitWord
	older atomic.Pointer[hekVersion]
	data  Row
}

// NewHekatonEngine builds a table of records rows.
func NewHekatonEngine(records int) *HekatonEngine {
	e := &HekatonEngine{rows: make([]hekRecord, records)}
	empty := make([]*hekTx, 0)
	e.sessions.Store(&empty)
	for i := range e.rows {
		v := &hekVersion{}
		for f := range v.data.Fields {
			v.data.Fields[f] = uint64(i)
		}
		v.begin.Store(0)
		e.rows[i].head.Store(v)
	}
	return e
}

// Name implements Engine.
func (e *HekatonEngine) Name() string { return "hekaton" }

// Records implements Engine.
func (e *HekatonEngine) Records() int { return len(e.rows) }

// Close implements Engine.
func (e *HekatonEngine) Close() {}

// Stats implements Engine.
func (e *HekatonEngine) Stats() (uint64, uint64) {
	return e.commits.Load(), e.aborts.Load()
}

// Session implements Engine.
func (e *HekatonEngine) Session() Tx {
	e.mu.Lock()
	defer e.mu.Unlock()
	t := &hekTx{e: e}
	t.beginTS.Store(hekIdle)
	old := *e.sessions.Load()
	next := make([]*hekTx, len(old)+1)
	copy(next, old)
	next[len(old)] = t
	e.sessions.Store(&next)
	return t
}

const hekIdle = ^uint64(0)

type hekTx struct {
	e       *HekatonEngine
	beginTS atomic.Uint64 // hekIdle when quiescent (GC registry)
	active  atomic.Bool
	// end is the running transaction's commit word, made on its first
	// write: fresh per transaction, so a reader holding a pending
	// version's owner never sees a later transaction's outcome.
	end    *clock.CommitWord
	writes []*hekVersion
	keys   []int
}

func (t *hekTx) Begin() {
	// Conservative registration (see GC): publish 0, then the real
	// begin timestamp, so a concurrent prune never outruns us.
	t.beginTS.Store(0)
	t.beginTS.Store(t.e.clock.Load())
	t.active.Store(true)
	t.end = nil
	t.writes = t.writes[:0]
	t.keys = t.keys[:0]
}

// visible reports whether v is in t's snapshot. A pending version is
// resolved through its writer's commit word, which a reader stamps rather
// than waits for (see clock.CommitWord).
func (t *hekTx) visible(v *hekVersion) bool {
	b := v.begin.Load()
	if b == clock.Pending {
		if v.owner == t.end {
			return true // own pending write
		}
		if b = v.owner.Load(); b == clock.Committing {
			b = v.owner.Stamp(t.e.clock.Add(1))
		}
	}
	return b <= t.beginTS.Load()
}

func (t *hekTx) Read(key int, out *Row) bool {
	for v := t.e.rows[key].head.Load(); v != nil; v = v.older.Load() {
		if t.visible(v) {
			*out = v.data
			return true
		}
	}
	// The chain was pruned past our (racy) snapshot; treat as conflict.
	return false
}

func (t *hekTx) Update(key int, fn func(*Row)) bool {
	rec := &t.e.rows[key]
	head := rec.head.Load()
	if head.begin.Load() == clock.Pending {
		if head.owner == t.end {
			fn(&head.data) // second update of the same row
			return true
		}
		return false // first-writer-wins
	}
	if head.begin.Load() > t.beginTS.Load() {
		return false // committed after our snapshot
	}
	if !t.visible(head) {
		return false
	}
	if t.end == nil {
		t.end = new(clock.CommitWord)
		t.end.Reset()
	}
	nv := &hekVersion{owner: t.end, data: head.data}
	nv.older.Store(head)
	nv.begin.Store(clock.Pending)
	if !rec.head.CompareAndSwap(head, nv) {
		return false
	}
	fn(&nv.data)
	t.writes = append(t.writes, nv)
	t.keys = append(t.keys, key)
	return true
}

func (t *hekTx) Commit() bool {
	if len(t.writes) > 0 {
		t.end.Seal()
		cts := t.end.Stamp(t.e.clock.Add(1))
		for _, v := range t.writes {
			v.begin.Store(cts)
		}
		// Prune chains cooperatively (Hekaton's GC scans for the
		// oldest active transaction; here every committer does).
		min := t.minActive()
		for _, k := range t.keys {
			pruneHek(&t.e.rows[k], min)
		}
	}
	t.active.Store(false)
	t.beginTS.Store(hekIdle)
	t.e.commits.Add(1)
	t.writes = t.writes[:0]
	t.keys = t.keys[:0]
	return true
}

func (t *hekTx) Abort() {
	// Unlink pending versions by restoring the old heads.
	for i, v := range t.writes {
		rec := &t.e.rows[t.keys[i]]
		rec.head.CompareAndSwap(v, v.older.Load())
	}
	t.active.Store(false)
	t.beginTS.Store(hekIdle)
	t.e.aborts.Add(1)
	t.writes = t.writes[:0]
	t.keys = t.keys[:0]
}

// minActive scans the session registry — the global-coordination cost of
// Hekaton's GC the paper points at.
func (t *hekTx) minActive() uint64 {
	min := t.e.clock.Load()
	for _, s := range *t.e.sessions.Load() {
		b := s.beginTS.Load()
		if b != hekIdle && b < min {
			min = b
		}
	}
	return min
}

// pruneHek truncates the chain behind the newest version visible to every
// active transaction.
func pruneHek(rec *hekRecord, min uint64) {
	for v := rec.head.Load(); v != nil; v = v.older.Load() {
		b := v.begin.Load()
		if b <= min {
			v.older.Store(nil)
			return
		}
	}
}
