package kvstore

// This file is the ordered-index capability surface: the interfaces the
// server (RANGE, MULTI/EXEC) and the WAL's transaction logging discover
// by type assertion, implemented by the internal/index builds. The index
// package imports kvstore (for Session, CommitOp, these types) and
// registers its builds through RegisterBuild, so kvstore itself never
// imports index — the same direction every other capability here uses.

// TxnOp is one mutation of a multi-key transaction.
type TxnOp struct {
	// Del marks a delete; Value is ignored then.
	Del   bool
	Key   string
	Value string
}

// OrderedSession is the capability an ordered-index build's sessions
// add on top of Session. The same one-goroutine contract applies. A
// Sharded composite's session does not have it: the server reaches each
// shard's sessions directly, merges ranges across shards itself, and
// keeps every transaction on one shard.
type OrderedSession interface {
	Session
	// RangeAscend visits every pair with lo <= key <= hi in ascending
	// key order, inside ONE snapshot critical section, stopping early
	// when fn returns false.
	RangeAscend(lo, hi string, fn func(key, value string) bool)
	// RangeDescend is RangeAscend in descending order: the same single
	// snapshot critical section, stopping as early. The index builds
	// walk either direction without collecting the window first, so a
	// walk that stops after n pairs costs O(n) steps past its seek.
	RangeDescend(lo, hi string, fn func(key, value string) bool)
	// ApplyTxn applies ops atomically: one Execute body, every touched
	// key locked via TryLock, one commit timestamp across all ops, and
	// — when a transaction hook is installed — one WAL record group.
	// removed[i] reports, for a Del op, whether the key existed.
	ApplyTxn(ops []TxnOp) (removed []bool)
}

// TxnHook observes one committed multi-key transaction as an atomic
// group: every op carries the same TS (and, once the Sharded composite
// stamps it, the same Shard). The daemon appends the group to the WAL in
// one call so recovery can never replay it torn. Same restrictions as
// CommitHook: installed before traffic, must not call back into the
// store. Ops of a transaction are NOT also delivered to the per-op
// CommitHook when a TxnHook is installed.
type TxnHook func(ops []CommitOp)

// txnHooker is the store capability behind SetStoreTxnCommitHook.
type txnHooker interface{ SetTxnCommitHook(TxnHook) }

// SetStoreTxnCommitHook installs h on an ordered build, reporting
// whether the store supports transactions.
func SetStoreTxnCommitHook(st Store, h TxnHook) bool {
	c, ok := st.(txnHooker)
	if ok {
		c.SetTxnCommitHook(h)
	}
	return ok
}

// SetTxnCommitHook implements txnHooker for the Sharded composite: a
// transaction executes on exactly one shard (the server's EXEC rejects
// a body whose keys cross shards), and that shard's hook stamps its
// index into every op of the group.
func (s *Sharded) SetTxnCommitHook(h TxnHook) {
	for i, sh := range s.shards {
		if c, ok := sh.(txnHooker); ok {
			idx := uint32(i)
			c.SetTxnCommitHook(func(ops []CommitOp) {
				for j := range ops {
					ops[j].Shard = idx
				}
				h(ops)
			})
		}
	}
}
