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
//   - On every build the hook runs inside the commit's writer locks (the
//     slots of the written keys, or the index writer mutex), immediately
//     after the commit: for any single key, hook-call order equals
//     commit order, so a log appended to in hook order is per-key
//     ordered without any sorting.
//   - It may block (WAL backpressure waiting on the snapshot installer):
//     the writer locks it runs under are never taken by readers, and the
//     vanilla builds hold their global write lock only inside the commit
//     body, so a snapshot dump can always proceed.
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

// WALCutoffs returns nil — "skip nothing" — for every store: replay
// needs no cutoff. Every build delivers its hooks under the commit's
// writer locks, so per-key log order is commit order, and a write is
// visible before its record is enqueued, so no record pruned by a
// snapshot can be newer than a replayed record for the same key. The
// WAL still honours cutoffs read from snapshots that carry them.
func WALCutoffs(Store) map[uint32]uint64 { return nil }

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
	shards := []Store{st}
	if s, ok := st.(*Sharded); ok {
		shards = s.shards
	}
	for i, sh := range shards {
		ts, logged := minTS[uint32(i)]
		if e, ok := sh.(core.Engine); ok && logged {
			for e.Now() < ts {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}
