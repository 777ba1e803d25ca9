package kvstore

import (
	"time"

	"mvrlu/internal/core"
)

// CommitOp is one committed store mutation as seen by a commit hook: the
// durability layer encodes it into a WAL record, and a future
// replication layer will stream it to followers.
type CommitOp struct {
	// TS is the shard-local commit timestamp: the engine's commit
	// timestamp for the mvrlu and rlu builds (MV-RLU's commit clock,
	// RLU's write clock), a per-store logical counter for the vanilla
	// builds. Within one shard, TS totally orders the commits to any
	// single key.
	TS uint64
	// Shard is the owning shard index (0 on unsharded stores; stamped
	// by the Sharded composite).
	Shard uint32
	// Del marks a delete; Value is empty then.
	Del   bool
	Key   string
	Value string
}

// CommitHook observes every committed write. Contract:
//
//   - It is called once per committed Set, and once per Remove that
//     actually removed a key (a Remove of a missing key commits nothing
//     and is not observed).
//   - For the engine-backed builds (mvrlu, rlu) the hook runs inside the
//     commit's writer locks (the slots of the written keys, or the
//     index writer mutex), immediately after the commit: for any single
//     key, hook-call order equals commit order, so a log appended to in
//     hook order is per-key ordered without any sorting.
//   - The vanilla builds call the hook after releasing their global
//     write lock (StoreBase.HooksAfterUnlock): calling out under an
//     exclusive store-wide lock would let a blocking hook — WAL
//     backpressure — deadlock against a snapshot dump that needs the
//     read lock. Two racing writers may therefore invoke hooks out of
//     timestamp order; WALCutoffs exists to make snapshot/replay
//     interplay safe anyway.
//   - The hook must not call back into the store.
//
// SetCommitHook must be called before the store serves traffic (the
// hook fields are plain, published by the happens-before of starting
// the serving goroutines), and hooks cannot be removed.
type CommitHook func(CommitOp)

// SetStoreCommitHook installs h on st; every build supports hooks, so it
// reports true.
func SetStoreCommitHook(st Store, h CommitHook) bool { st.SetCommitHook(h); return true }

// SetCommitHook implements Store for the Sharded composite: each shard's
// own hook stamps its shard index into the op before forwarding.
func (s *Sharded) SetCommitHook(h CommitHook) {
	for i, sh := range s.shards {
		idx := uint32(i)
		sh.SetCommitHook(func(op CommitOp) {
			op.Shard = idx
			h(op)
		})
	}
}

// walClocker is the per-shard capability behind WALCutoffs: a build
// whose commit hooks can run out of timestamp order (vanilla) exposes a
// stable cutoff — every commit with ts ≤ the cutoff is fully applied and
// visible to any store read that starts afterwards.
type walClocker interface{ WALCutoff() uint64 }

// WALCutoffs reads each shard's replay cutoff, keyed by shard index, for
// a snapshot about to be dumped. Shards without the capability (mvrlu,
// rlu — their hooks run inside the commit lock, so per-key log order
// equals commit order and no cutoff is needed) are omitted, which the
// WAL treats as "skip nothing".
//
// Read the cutoffs BEFORE the dump's walk: any commit stamped before
// this read either already released its locks or still holds the write
// lock the walk's read lock must wait out — either way the walk sees it.
func WALCutoffs(st Store) map[uint32]uint64 {
	cut := map[uint32]uint64{}
	forEachShard(st, func(i int, sh Store) {
		if c, ok := sh.(walClocker); ok {
			cut[uint32(i)] = c.WALCutoff()
		}
	})
	if len(cut) == 0 {
		return nil
	}
	return cut
}

// WaitVisible blocks until every commit with timestamp ≤ minTS[shard] is
// visible to a store read starting afterwards. The MV-RLU build commits
// at clock-now + ORDO boundary — a timestamp up to `boundary` in the
// future — so a snapshot read racing a just-logged commit could miss it;
// waiting for the shard clock to pass the largest logged timestamp
// closes that window. The Hardware clock advances with real time and the
// Global clock advances per Now() call, so the wait terminates on both.
// Builds without a core.Engine need no wait (their commits are visible
// at hook time).
func WaitVisible(st Store, minTS map[uint32]uint64) {
	forEachShard(st, func(i int, sh Store) {
		ts, ok := minTS[uint32(i)]
		if !ok {
			return
		}
		e, ok := sh.(core.Engine)
		if !ok {
			return
		}
		for e.Now() < ts {
			time.Sleep(50 * time.Microsecond)
		}
	})
}

// forEachShard visits the component stores of a Sharded composite, or
// the store itself (index 0) when unsharded.
func forEachShard(st Store, fn func(i int, sh Store)) {
	if s, ok := st.(*Sharded); ok {
		for i, sh := range s.shards {
			fn(i, sh)
		}
		return
	}
	fn(0, st)
}
