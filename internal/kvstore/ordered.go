package kvstore

// This file is the transaction and ordered-index surface: the
// interfaces behind the server's MULTI/EXEC (every build) and RANGE (the
// internal/index builds), and the WAL's transaction hook. The index
// package imports kvstore (for Session, TowerSession, these types) and
// registers its builds through RegisterBuild, so kvstore itself never
// imports index.

import "mvrlu/internal/obs"

// TxnOp is one mutation of a multi-key transaction.
type TxnOp struct {
	// Del marks a delete; Value is ignored then.
	Del   bool
	Key   string
	Value string
}

// TxnSession is the session surface every single-domain build offers:
// Session plus atomic multi-key transactions (the server's MULTI/EXEC).
// The same one-goroutine contract applies. A Sharded composite's session
// does not have it: the server reaches each shard's sessions directly
// and keeps every transaction on one shard.
type TxnSession interface {
	Session
	// ApplyTxn applies ops atomically and reports, for a Del op, whether
	// the key existed. The engine builds run every effective op inside
	// one Execute body — every touched key locked via TryLock, one
	// commit timestamp across all ops — under the writer locks of every
	// touched key; the vanilla builds hold their write lock across the
	// body. When a transaction hook is installed the body is delivered
	// as one WAL record group.
	ApplyTxn(ops []TxnOp) (removed []bool)
	// SetTrace sets the request trace that write paths stamp engine-side
	// spans into — lock wait, commit critical section, WAL append —
	// until it is cleared with SetTrace(nil). The server sets it around a
	// traced batch on a checked-out session.
	SetTrace(tr *obs.Trace)
	// ThreadID is the engine registry id backing the session — the id
	// the stall detector reports when its snapshot pins the watermark —
	// or -1 on the builds without that detector (rlu, vanilla).
	ThreadID() int
}

// OrderedSession is the capability an ordered-index build's sessions
// add on top of TxnSession: snapshot range walks (the server's RANGE).
type OrderedSession interface {
	TxnSession
	// RangeAscend visits every pair with lo <= key <= hi in ascending
	// key order, inside ONE snapshot critical section, stopping early
	// when fn returns false.
	RangeAscend(lo, hi string, fn func(key, value string) bool)
	// RangeDescend is RangeAscend in descending order: the same single
	// snapshot critical section, stopping as early. The index builds
	// walk either direction without collecting the window first, so a
	// walk that stops after n pairs costs O(n) steps past its seek.
	RangeDescend(lo, hi string, fn func(key, value string) bool)
}

// TxnHook observes one committed multi-key transaction as an atomic
// group: every op carries the same TS (and, once the Sharded composite
// stamps it, the same Shard). The daemon appends the group to the WAL in
// one call so recovery can never replay it torn. Same restrictions as
// CommitHook: installed before traffic, must not call back into the
// store. Ops of a transaction are NOT also delivered to the per-op
// CommitHook when a TxnHook is installed.
type TxnHook func(ops []CommitOp)

// SetStoreTxnCommitHook installs h on st; every build supports
// transactions, so it reports true.
func SetStoreTxnCommitHook(st Store, h TxnHook) bool { st.SetTxnCommitHook(h); return true }

// SetTxnCommitHook implements Store for the Sharded composite: a
// transaction executes on exactly one shard (the server's EXEC rejects
// a body whose keys cross shards), and that shard's hook stamps its
// index into every op of the group.
func (s *Sharded) SetTxnCommitHook(h TxnHook) {
	for i, sh := range s.shards {
		idx := uint32(i)
		sh.SetTxnCommitHook(func(ops []CommitOp) {
			for j := range ops {
				ops[j].Shard = idx
			}
			h(ops)
		})
	}
}
