package kvstore

import "mvrlu/internal/core"

// Sharded composes N independent Store builds into one keyspace, each
// shard owning the hash slice shardOf(hash(key), N). Because every shard
// is a whole store — for the mvrlu build, a whole core.Domain with its
// own session registry, watermark, grace-period detector, and autonomous
// GC — reclamation blast radius is confined per shard: a pinned snapshot
// reader (long SCAN) on shard k stalls shard k's watermark only, while
// the other N−1 shards keep committing, advancing their watermarks, and
// reclaiming. This is the server-path realization of the multi-version
// GC-bounding argument: bound the cost of a slow reader by partitioning
// what it can pin.
//
// Cross-shard semantics: single-key operations are linearizable per key
// exactly as before (a key lives on one shard). Multi-key operations
// (MGET/MSET/DEL at the server, ForEach here) execute per-shard and are
// not atomic across shards — the same non-atomicity MSET already had
// across slots within one domain. A ForEach/ForEachPrefix snapshot is
// per-shard consistent: each shard contributes one consistent snapshot,
// taken at its own timestamp.
type Sharded struct {
	name   string
	shards []Store
}

// NewShardedStore composes the given stores into one sharded keyspace.
// All stores should be the same build; the composite reports the first
// store's build name. Panics on an empty slice.
func NewShardedStore(stores []Store) *Sharded {
	if len(stores) == 0 {
		panic("kvstore: NewShardedStore with no shards")
	}
	// Tag each shard's engine domain with its index so GC/watermark
	// timeline events (TRACELOG GC) attribute to the right shard.
	for i, st := range stores {
		if e, ok := st.(core.Engine); ok {
			e.SetEventTag(uint32(i))
		}
	}
	return &Sharded{name: stores[0].Name(), shards: stores}
}

// Name implements Store: the underlying build name, unchanged, so
// tooling that keys on build (INFO's build line, mvkvload's probe) keeps
// working; the shard count is surfaced separately (NumShards, INFO).
func (s *Sharded) Name() string { return s.name }

// NumShards reports the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i's underlying store — the router executes
// sub-batches against these directly, and tests reach per-shard
// watermarks through them.
func (s *Sharded) Shard(i int) Store { return s.shards[i] }

// ShardFor maps a key to its owning shard index.
func (s *Sharded) ShardFor(key string) int {
	return shardOf(hashString(key), len(s.shards))
}

// Close implements Store: every shard's background machinery stops.
func (s *Sharded) Close() {
	for _, sh := range s.shards {
		sh.Close()
	}
}

// NumSessions implements Store: the sum across shards.
func (s *Sharded) NumSessions() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.NumSessions()
	}
	return n
}

// Session implements Store with a routing session holding one
// sub-session per shard. The composite Session obeys the usual contract
// (one goroutine at a time) and offers the plain Session surface only,
// never ranges or transactions; it is the path for embedders, the
// benchmark preload and WAL replay. The server bypasses it and pools
// per-shard sessions itself so a batch only touches the shards it needs.
func (s *Sharded) Session() Session {
	subs := make([]Session, len(s.shards))
	for i, sh := range s.shards {
		subs[i] = sh.Session()
	}
	return &shardedSession{s: s, subs: subs}
}

type shardedSession struct {
	s    *Sharded
	subs []Session
}

func (k *shardedSession) shard(key string) Session {
	return k.subs[k.s.ShardFor(key)]
}

func (k *shardedSession) Get(key string) (string, bool) { return k.shard(key).Get(key) }
func (k *shardedSession) Set(key, value string)         { k.shard(key).Set(key, value) }
func (k *shardedSession) Remove(key string) bool        { return k.shard(key).Remove(key) }

// ForEach visits every record, shard by shard in index order. Each
// shard's visit is one consistent snapshot; the composite is a sequence
// of per-shard snapshots, not one global one (see the type comment).
func (k *shardedSession) ForEach(fn func(key, value string) bool) {
	for _, sub := range k.subs {
		stopped := false
		sub.ForEach(func(key, value string) bool {
			if !fn(key, value) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// ForEachPrefix is ForEach restricted to a prefix, same per-shard
// snapshot semantics.
func (k *shardedSession) ForEachPrefix(prefix string, fn func(key, value string) bool) {
	for _, sub := range k.subs {
		stopped := false
		sub.ForEachPrefix(prefix, func(key, value string) bool {
			if !fn(key, value) {
				stopped = true
				return false
			}
			return true
		})
		if stopped {
			return
		}
	}
}

// Close releases every sub-session.
func (k *shardedSession) Close() {
	for _, sub := range k.subs {
		sub.Close()
	}
}
