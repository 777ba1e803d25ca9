package kvstore

import (
	"errors"
	"slices"
	"strings"
)

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

// ErrCrossShard rejects a transaction whose keys hash to different
// shards of a Sharded composite. Single-shard transactions are the
// documented MULTI contract (see DESIGN.md §12): every record of the
// transaction then shares one shard, one commit timestamp, and one WAL
// record group.
var ErrCrossShard = errors.New("kvstore: transaction keys cross shards")

// OrderedSession is the capability an ordered-index build's sessions
// add on top of Session. The same one-goroutine contract applies.
type OrderedSession interface {
	Session
	// RangeAscend visits every pair with lo <= key <= hi in ascending
	// key order, inside ONE snapshot critical section, stopping early
	// when fn returns false.
	RangeAscend(lo, hi string, fn func(key, value string) bool)
	// RangeDescend is RangeAscend in descending order: the same single
	// snapshot critical section, stopping as early. The index builds
	// walk either direction without collecting the window first, so a
	// walk that stops after n pairs costs O(n) steps past its seek (the
	// Sharded composite below still merges whole per-shard windows).
	RangeDescend(lo, hi string, fn func(key, value string) bool)
	// ApplyTxn applies ops atomically: one Execute body, every touched
	// key locked via TryLock, one commit timestamp across all ops, and
	// — when a transaction hook is installed — one WAL record group.
	// removed[i] reports, for a Del op, whether the key existed. The
	// only error is ErrCrossShard from a Sharded composite.
	ApplyTxn(ops []TxnOp) (removed []bool, err error)
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
// transaction executes on exactly one shard (ApplyTxn enforces it), and
// that shard's hook stamps its index into every op of the group.
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

// orderedShardedSession upgrades the Sharded composite session when
// every shard's session is ordered. Ranges collect per shard and merge
// globally (sort, then cut by the caller's fn) — the same
// collect-unbounded / order-globally discipline the server's SCAN path
// uses, so a LIMIT cut by fn selects identical keys at any shard count.
// (The server's RANGE knows its LIMIT and cuts each shard's walk there;
// a callback cannot tell a walk in advance where it will stop.)
type orderedShardedSession struct {
	shardedSession
	osubs []OrderedSession // parallel to the embedded subs
}

func (o *orderedShardedSession) collect(lo, hi string) []kv {
	var all []kv
	for _, sub := range o.osubs {
		sub.RangeAscend(lo, hi, func(k, v string) bool {
			all = append(all, kv{k, v})
			return true
		})
	}
	slices.SortFunc(all, func(a, b kv) int { return strings.Compare(a.k, b.k) })
	return all
}

func (o *orderedShardedSession) RangeAscend(lo, hi string, fn func(key, value string) bool) {
	for _, p := range o.collect(lo, hi) {
		if !fn(p.k, p.v) {
			return
		}
	}
}

func (o *orderedShardedSession) RangeDescend(lo, hi string, fn func(key, value string) bool) {
	all := o.collect(lo, hi)
	for i := len(all) - 1; i >= 0; i-- {
		if !fn(all[i].k, all[i].v) {
			return
		}
	}
}

func (o *orderedShardedSession) ApplyTxn(ops []TxnOp) ([]bool, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	shard := o.s.ShardFor(ops[0].Key)
	for _, op := range ops[1:] {
		if o.s.ShardFor(op.Key) != shard {
			return nil, ErrCrossShard
		}
	}
	return o.osubs[shard].ApplyTxn(ops)
}

// kv is one collected range pair.
type kv struct{ k, v string }
