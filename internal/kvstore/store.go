// Package kvstore is an in-memory cache database shaped like
// KyotoCabinet's CacheDB (§6.4, Figure 10): the keyspace is divided into
// slots, each slot into buckets, and each bucket holds a binary search
// tree of records. Three builds are compared:
//
//   - vanilla: the stock design — one global readers-writer lock plus
//     per-slot locks, the scalability bottleneck the paper (and the RLU
//     paper before it) removes;
//   - rlu: the global lock replaced by RLU critical sections, writers
//     still serialized per slot (the paper keeps per-slot locks for a
//     fair comparison, and notes they become the next bottleneck);
//   - mvrlu: the same port over MV-RLU, a drop-in replacement for RLU.
//
// Every build, these three and the internal/index ordered builds, serves
// its sessions through one TowerSession (session.go): the one commit
// routine behind Set, Remove and ApplyTxn — take the writer locks,
// apply the body in one commit, record it, deliver it to the hooks —
// plus trace spans and the one snapshot walk behind ForEach and the
// ordered builds' ranges. KV-history recording for check.CheckKV is
// part of both, so every build records once AttachKVHistory (on
// StoreBase) is called. What differs
// per build is a Tower: its node type, its writer locks and the loops
// that read and write its structure. The three hash towers lock the
// distinct slots of a body's keys in ascending slot order and apply the
// body in one commit — one Execute on the engine builds, one hold of the
// global write lock on vanilla — so a multi-key transaction (the
// server's MULTI/EXEC) is atomic on every build, and the hooks run under
// the writer locks on every build.
package kvstore

import (
	"slices"
	"sync"
	"sync/atomic"
)

// Session is a handle to the store.
//
// Concurrency contract: a Session may be used by at most one goroutine
// at a time. The mvrlu and rlu builds back each Session with a
// registered engine thread handle whose fast-path state is plain
// (non-atomic) owner-only data; concurrent calls on one Session are a
// data race. Handing a Session between goroutines is allowed when the
// hand-off establishes a happens-before edge (channel send, mutex) —
// exactly the engine's Thread contract — which is what makes a bounded
// Session pool (connections checked out per command batch, as
// internal/server does) legal without per-connection registration.
type Session interface {
	// Get returns the value for key.
	Get(key string) (string, bool)
	// Set inserts or replaces key's value.
	Set(key, value string)
	// Remove deletes key, reporting whether it existed.
	Remove(key string) bool
	// ForEach visits every record and stops early when fn returns
	// false. The iteration is a consistent snapshot taken inside one
	// critical section (the CacheDB iterator use case). Under MV-RLU
	// concurrent writers keep committing (multi-versioning); under RLU
	// their commits wait for the scan in rlu_synchronize; the vanilla
	// build holds the global read lock, blocking writers outright.
	ForEach(fn func(key, value string) bool)
	// ForEachPrefix is ForEach restricted to keys with the given
	// prefix, in the same single-snapshot critical section. The hashed
	// slot/bucket layout means a prefix scan still visits every tree
	// (it is a filter, not an index seek); a long prefix scan is the
	// canonical snapshot-pinning reader the multi-version GC must ride
	// out. An empty prefix scans everything.
	ForEachPrefix(prefix string, fn func(key, value string) bool)
	// Close releases the handle. The mvrlu build unregisters its engine
	// thread (removing it from the watermark scan); the rlu build's
	// registry has no removal, and the vanilla build holds no
	// per-session state, so both are no-ops there. The Session is
	// unusable afterwards. Close must not be called while another
	// goroutine is using the Session, and is not required for program
	// correctness — dropping an mvrlu Session without Close is flagged
	// by the engine's leak guard (Stats.HandleLeaks) instead of
	// corrupting reclamation.
	Close()
}

// Store is a cache database build.
type Store interface {
	// Name identifies the build ("vanilla", "rlu-kv", "mvrlu-kv").
	Name() string
	// Session registers the calling goroutine.
	Session() Session
	// NumSessions reports how many sessions are currently open (created
	// and not yet Closed). Pools size themselves against it and tests
	// audit handle lifecycles with it; builds whose sessions hold no
	// engine handle still count so the builds agree.
	NumSessions() int
	// SetCommitHook installs the per-op commit hook (see CommitHook).
	SetCommitHook(h CommitHook)
	// SetTxnCommitHook installs the transaction hook (see TxnHook).
	SetTxnCommitHook(h TxnHook)
	// Close stops background machinery.
	Close()
}

// hashString is FNV-1a, the classic cheap string hash.
func hashString(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Layout constants mirroring KyotoCabinet CacheDB defaults.
const (
	// DefaultSlots is the number of independently locked slots.
	DefaultSlots = 16
	// DefaultBucketsPerSlot is each slot's hash-bucket count
	// (KyotoCabinet allocates ~1M buckets per slot; scaled down for an
	// in-memory benchmark that fits this substrate).
	DefaultBucketsPerSlot = 4096
)

func slotOf(h uint64, slots int) int     { return int(h % uint64(slots)) }
func bucketOf(h uint64, buckets int) int { return int((h >> 32) % uint64(buckets)) }

// rootOf is the index of h's bucket tree in a slot-major root array.
func rootOf(h uint64, slots, buckets int) int {
	return slotOf(h, slots)*buckets + bucketOf(h, buckets)
}

// sentinel is the bucket tree root r holds, made and stored first if the
// bucket is empty (a zero engine object is an empty one): an engine hash
// build's roots are nil until their bucket's first insert, and readers
// take nil for an empty tree. A Set calls it in its body, under the
// bucket's slot lock (no writer races the store) and before the commit
// timestamp is drawn: a reader whose snapshot follows the commit loads
// the sentinel, so one that loads nil took its snapshot before the
// commit, under MV-RLU and RLU alike. Nothing un-publishes a sentinel:
// an abort, retry or panic rollback leaves an empty tree.
func sentinel[O any](r *atomic.Pointer[O]) *O {
	s := r.Load()
	if s == nil {
		s = new(O)
		r.Store(s)
	}
	return s
}

// slotLocks are a hash build's writer locks, one per slot, each on its
// own cache line.
type slotLocks []struct {
	sync.Mutex
	_ [56]byte
}

// slotWriter is a hash tower's writer half: Lock takes the distinct
// slots of the body's keys in ascending order — the one order every
// writer uses, so bodies whose slot sets overlap cannot deadlock — and
// a one-key write locks one slot and allocates nothing. Each key is
// hashed once per commit: Apply finds its bucket from hashes.
type slotWriter struct {
	locks  slotLocks
	held   []int    // slots taken by Lock, ascending
	hashes []uint64 // per kept op
	one    [1]int
	hash1  [1]uint64
}

func (w *slotWriter) Lock(ops []TxnOp, keep []int) {
	held, hashes := w.one[:0], w.hash1[:0]
	for _, i := range keep {
		h := hashString(ops[i].Key)
		hashes = append(hashes, h)
		sl := slotOf(h, len(w.locks))
		if j, found := slices.BinarySearch(held, sl); !found {
			held = slices.Insert(held, j, sl)
		}
	}
	for _, sl := range held {
		w.locks[sl].Lock()
	}
	w.held, w.hashes = held, hashes
}

func (w *slotWriter) Unlock() {
	for _, sl := range w.held {
		w.locks[sl].Unlock()
	}
}

// shardOf maps a key hash to one of n shards. The hash is re-mixed with
// the splitmix64 finalizer first so the shard choice is decorrelated
// from the slot (low bits, h % slots) and bucket (h>>32 % buckets) bit
// ranges — without it, shards == slots would alias shard and slot and
// leave every shard's other slots empty.
func shardOf(h uint64, n int) int {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccb
	h ^= h >> 33
	return int(h % uint64(n))
}

// ShardOf exposes the router's key placement: the shard index key maps
// to in an n-shard store. Clients composing MULTI bodies — which must
// not cross shards — use it to pick co-located keys.
func ShardOf(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return shardOf(hashString(key), n)
}
