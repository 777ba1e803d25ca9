package server

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"mvrlu/internal/kvstore"

	_ "mvrlu/internal/index"
)

func TestRangeCommand(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			store := newStore(t, "mvrlu-idx", shards)
			defer store.Close()
			srv, _ := startServer(t, store, Config{Handles: 2})
			defer srv.Shutdown()
			c := dialT(t, srv)

			for i := 0; i < 10; i++ {
				if r := c.cmd("SET", fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)); r.Str != "OK" {
					t.Fatalf("SET: %v", r)
				}
			}

			r := c.cmd("RANGE", "k02", "k05")
			want := []string{"k02", "v2", "k03", "v3", "k04", "v4", "k05", "v5"}
			checkFlat(t, "RANGE", r, want)

			r = c.cmd("RANGE", "k02", "k05", "LIMIT", "2")
			checkFlat(t, "RANGE LIMIT", r, want[:4])

			r = c.cmd("RANGE", "k02", "k05", "REV")
			checkFlat(t, "RANGE REV", r, []string{"k05", "v5", "k04", "v4", "k03", "v3", "k02", "v2"})

			r = c.cmd("RANGE", "k02", "k05", "LIMIT", "1", "REV")
			checkFlat(t, "RANGE LIMIT REV", r, []string{"k05", "v5"})

			// REV LIMIT in the other order parses the same.
			r = c.cmd("RANGE", "k02", "k05", "REV", "LIMIT", "1")
			checkFlat(t, "RANGE REV LIMIT", r, []string{"k05", "v5"})

			r = c.cmd("RANGE", "k00", "k99", "LIMIT", "0")
			checkFlat(t, "RANGE LIMIT 0", r, nil)

			// Reversed bounds: legal, empty.
			r = c.cmd("RANGE", "k05", "k02")
			checkFlat(t, "RANGE reversed bounds", r, nil)

			// Parse errors.
			if r := c.cmd("RANGE", "a"); !r.IsError() || !strings.Contains(r.Str, "wrong number") {
				t.Fatalf("RANGE arity: %v", r)
			}
			if r := c.cmd("RANGE", "a", "b", "LIMIT"); !r.IsError() || !strings.Contains(r.Str, "syntax") {
				t.Fatalf("RANGE dangling LIMIT: %v", r)
			}
			if r := c.cmd("RANGE", "a", "b", "LIMIT", "-1"); !r.IsError() || !strings.Contains(r.Str, "invalid LIMIT") {
				t.Fatalf("RANGE negative LIMIT: %v", r)
			}
			if r := c.cmd("RANGE", "a", "b", "BOGUS"); !r.IsError() || !strings.Contains(r.Str, "syntax") {
				t.Fatalf("RANGE bogus option: %v", r)
			}
		})
	}
}

// TestRangeLimitBoundsShardWalks pins what a RANGE costs: a LIMIT 16
// over a 10k-key window hands each shard's walk at most 16 pairs, in
// both directions and at every shard count, instead of the whole window.
// The reply itself must still be the 16 smallest (or, REV, largest) keys.
func TestRangeLimitBoundsShardWalks(t *testing.T) {
	const keys, limit = 10000, 16
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			var widest atomic.Int64
			parts := make([]kvstore.Store, shards)
			for i := range parts {
				st, err := kvstore.New("mvrlu-idx", 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				parts[i] = countingIndex{st, &widest}
			}
			store := parts[0]
			if shards > 1 {
				store = kvstore.NewShardedStore(parts)
			}
			defer store.Close()
			sess := store.Session()
			for i := 0; i < keys; i++ {
				sess.Set(fmt.Sprintf("r%05d", i), fmt.Sprintf("v%d", i))
			}
			sess.Close()
			srv, _ := startServer(t, store, Config{Handles: 2})
			defer srv.Shutdown()
			c := dialT(t, srv)

			for _, rev := range []bool{false, true} {
				args := []string{"RANGE", "r00000", "r99999", "LIMIT", fmt.Sprint(limit)}
				if rev {
					args = append(args, "REV")
				}
				var want []string
				for i := 0; i < limit; i++ {
					n := i
					if rev {
						n = keys - 1 - i
					}
					want = append(want, fmt.Sprintf("r%05d", n), fmt.Sprintf("v%d", n))
				}
				what := strings.Join(args, " ")
				widest.Store(0)
				checkFlat(t, what, c.cmd(args...), want)
				if n := widest.Load(); n > limit {
					t.Fatalf("%s: a shard walk visited %d pairs", what, n)
				}
			}
		})
	}
}

// countingIndex wraps an ordered store so a test sees how far its range
// walks go: widest is the most pairs any one walk has handed its
// callback.
type countingIndex struct {
	kvstore.Store
	widest *atomic.Int64
}

func (s countingIndex) Session() kvstore.Session {
	return countingSession{s.Store.Session().(kvstore.OrderedSession), s.widest}
}

type countingSession struct {
	kvstore.OrderedSession
	widest *atomic.Int64
}

func (k countingSession) RangeAscend(lo, hi string, fn func(key, value string) bool) {
	k.count(k.OrderedSession.RangeAscend, lo, hi, fn)
}

func (k countingSession) RangeDescend(lo, hi string, fn func(key, value string) bool) {
	k.count(k.OrderedSession.RangeDescend, lo, hi, fn)
}

func (k countingSession) count(walk func(lo, hi string, fn func(key, value string) bool), lo, hi string, fn func(key, value string) bool) {
	var n int64
	walk(lo, hi, func(key, value string) bool {
		n++
		return fn(key, value)
	})
	for w := k.widest.Load(); n > w && !k.widest.CompareAndSwap(w, n); w = k.widest.Load() {
	}
}

func checkFlat(t *testing.T, what string, r Reply, want []string) {
	t.Helper()
	if r.Kind != ArrayReply || len(r.Elems) != len(want) {
		t.Fatalf("%s: %v (%d elems, want %d)", what, r, len(r.Elems), len(want))
	}
	for i, w := range want {
		if r.Elems[i].Str != w {
			t.Fatalf("%s: elem %d = %q, want %q", what, i, r.Elems[i].Str, w)
		}
	}
}

// TestRangeNotOrdered: the plain KV builds reject RANGE with a clear
// error instead of a panic or a silent wrong answer, while MULTI/EXEC,
// which every build supports, applies.
func TestRangeNotOrdered(t *testing.T) {
	store := newMVStore(t)
	defer store.Close()
	srv, _ := startServer(t, store, Config{Handles: 2})
	defer srv.Shutdown()
	c := dialT(t, srv)

	if r := c.cmd("RANGE", "a", "b"); !r.IsError() || !strings.Contains(r.Str, "ordered index") {
		t.Fatalf("RANGE on plain build: %v", r)
	}
	if r := c.cmd("MULTI"); r.Str != "OK" {
		t.Fatalf("MULTI: %v", r)
	}
	if r := c.cmd("SET", "a", "1"); r.Str != "QUEUED" {
		t.Fatalf("queue: %v", r)
	}
	if r := c.cmd("EXEC"); r.Kind != ArrayReply || len(r.Elems) != 1 || r.Elems[0].Str != "OK" {
		t.Fatalf("EXEC on plain build: %v", r)
	}
	if r := c.cmd("GET", "a"); r.Str != "1" {
		t.Fatalf("EXEC body not applied: %v", r)
	}
}

// TestMultiExec runs one MULTI body on the ordered build and on the
// default hash build, whose slot-locked commit is the same shared
// session.
func TestMultiExec(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, build := range []string{"mvrlu-idx", "mvrlu-kv"} {
				t.Run(build, func(t *testing.T) { testMultiExec(t, build, shards) })
			}
		})
	}
}

func testMultiExec(t *testing.T, build string, shards int) {
	store := newStore(t, build, shards)
	defer store.Close()
	srv, _ := startServer(t, store, Config{Handles: 2})
	defer srv.Shutdown()
	c := dialT(t, srv)

	// Keys of one transaction must stay on one shard; the t:* keys
	// here hash wherever, so pick a body from keys sharing a shard.
	keys := sameShardKeys(store, "t:", 3)
	if r := c.cmd("SET", keys[2], "stale"); r.Str != "OK" {
		t.Fatalf("seed SET: %v", r)
	}

	if r := c.cmd("MULTI"); r.Str != "OK" {
		t.Fatalf("MULTI: %v", r)
	}
	if r := c.cmd("SET", keys[0], "x"); r.Str != "QUEUED" {
		t.Fatalf("queue SET: %v", r)
	}
	if r := c.cmd("SET", keys[1], "y"); r.Str != "QUEUED" {
		t.Fatalf("queue SET: %v", r)
	}
	if r := c.cmd("DEL", keys[2], keys[0]); r.Str != "QUEUED" {
		t.Fatalf("queue DEL: %v", r)
	}
	r := c.cmd("EXEC")
	// Replies: +OK, +OK, :1 — keys[2] existed; keys[0] was written
	// by this same transaction, and the last op per key wins, so
	// the DEL of keys[0] reports not-removed (it deletes the
	// version this txn itself queued — see kvstore.CompressTxn).
	if r.Kind != ArrayReply || len(r.Elems) != 3 {
		t.Fatalf("EXEC: %v", r)
	}
	if r.Elems[0].Str != "OK" || r.Elems[1].Str != "OK" {
		t.Fatalf("EXEC SET replies: %v", r.Elems)
	}
	if r.Elems[2].Int != 1 {
		t.Fatalf("EXEC DEL reply: %v", r.Elems[2])
	}
	if r := c.cmd("GET", keys[1]); r.Str != "y" {
		t.Fatalf("committed key: %v", r)
	}
	if r := c.cmd("GET", keys[0]); r.Kind != NullReply {
		t.Fatalf("deleted key: %v", r)
	}

	// Empty transaction.
	if r := c.cmd("MULTI"); r.Str != "OK" {
		t.Fatalf("MULTI: %v", r)
	}
	if r := c.cmd("EXEC"); r.Kind != ArrayReply || len(r.Elems) != 0 {
		t.Fatalf("empty EXEC: %v", r)
	}

	// DISCARD drops the queue.
	c.cmd("MULTI")
	c.cmd("SET", keys[0], "never")
	if r := c.cmd("DISCARD"); r.Str != "OK" {
		t.Fatalf("DISCARD: %v", r)
	}
	if r := c.cmd("GET", keys[0]); r.Kind != NullReply {
		t.Fatalf("discarded write applied: %v", r)
	}
}

func TestMultiErrors(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			store := newStore(t, "mvrlu-idx", shards)
			defer store.Close()
			srv, _ := startServer(t, store, Config{Handles: 2})
			defer srv.Shutdown()
			c := dialT(t, srv)

			if r := c.cmd("EXEC"); !r.IsError() || !strings.Contains(r.Str, "EXEC without MULTI") {
				t.Fatalf("EXEC without MULTI: %v", r)
			}
			if r := c.cmd("DISCARD"); !r.IsError() || !strings.Contains(r.Str, "DISCARD without MULTI") {
				t.Fatalf("DISCARD without MULTI: %v", r)
			}

			// Nested MULTI errors but does not abort the body.
			c.cmd("MULTI")
			if r := c.cmd("MULTI"); !r.IsError() || !strings.Contains(r.Str, "nested") {
				t.Fatalf("nested MULTI: %v", r)
			}
			if r := c.cmd("SET", "t:n", "1"); r.Str != "QUEUED" {
				t.Fatalf("queue after nested error: %v", r)
			}
			if r := c.cmd("EXEC"); r.Kind != ArrayReply || len(r.Elems) != 1 {
				t.Fatalf("EXEC after nested error: %v", r)
			}

			// A queue-time error (bad arity, unqueueable command) latches
			// the abort: EXEC refuses and nothing commits.
			c.cmd("MULTI")
			c.cmd("SET", "t:a", "1")
			if r := c.cmd("SET", "lonely"); !r.IsError() {
				t.Fatalf("bad arity in MULTI: %v", r)
			}
			if r := c.cmd("EXEC"); !r.IsError() || !strings.Contains(r.Str, "EXECABORT") {
				t.Fatalf("EXEC after queue error: %v", r)
			}
			if r := c.cmd("GET", "t:a"); r.Kind != NullReply {
				t.Fatalf("aborted txn committed: %v", r)
			}

			c.cmd("MULTI")
			if r := c.cmd("GET", "t:a"); !r.IsError() || !strings.Contains(r.Str, "not allowed inside MULTI") {
				t.Fatalf("GET in MULTI: %v", r)
			}
			if r := c.cmd("EXEC"); !r.IsError() || !strings.Contains(r.Str, "EXECABORT") {
				t.Fatalf("EXEC after unqueueable: %v", r)
			}
		})
	}
}

// TestMultiCrossShard: a MULTI body whose keys hash to different shards
// is rejected at EXEC with the store untouched — the documented
// single-shard transaction contract.
func TestMultiCrossShard(t *testing.T) {
	store := newStore(t, "mvrlu-idx", 4)
	defer store.Close()
	sh := store.(*kvstore.Sharded)
	srv, _ := startServer(t, store, Config{Handles: 4})
	defer srv.Shutdown()
	c := dialT(t, srv)

	// Find two keys on different shards.
	var a, b string
	for i := 0; ; i++ {
		k := fmt.Sprintf("x:%d", i)
		if a == "" {
			a = k
			continue
		}
		if sh.ShardFor(k) != sh.ShardFor(a) {
			b = k
			break
		}
	}

	c.cmd("MULTI")
	c.cmd("SET", a, "1")
	c.cmd("SET", b, "2")
	if r := c.cmd("EXEC"); !r.IsError() || !strings.Contains(r.Str, "CROSSSHARD") {
		t.Fatalf("cross-shard EXEC: %v", r)
	}
	if r := c.cmd("GET", a); r.Kind != NullReply {
		t.Fatalf("rejected txn wrote %s: %v", a, r)
	}
	if r := c.cmd("GET", b); r.Kind != NullReply {
		t.Fatalf("rejected txn wrote %s: %v", b, r)
	}

	// The state machine reset: a fresh same-shard body commits.
	keys := sameShardKeys(store, "y:", 2)
	c.cmd("MULTI")
	c.cmd("SET", keys[0], "1")
	c.cmd("SET", keys[1], "2")
	if r := c.cmd("EXEC"); r.Kind != ArrayReply || len(r.Elems) != 2 {
		t.Fatalf("same-shard EXEC after rejection: %v", r)
	}
}

// TestMultiPipelined drives the whole transaction in ONE pipelined batch
// so the planner queues and executes it within a single collect /
// execute / render cycle.
func TestMultiPipelined(t *testing.T) {
	store := newStore(t, "mvrlu-idx", 4)
	defer store.Close()
	srv, _ := startServer(t, store, Config{Handles: 4})
	defer srv.Shutdown()
	c := dialT(t, srv)

	keys := sameShardKeys(store, "p:", 2)
	c.send("MULTI")
	c.send("SET", keys[0], "1")
	c.send("SET", keys[1], "2")
	c.send("EXEC")
	c.send("GET", keys[0])
	c.flush()
	if r := c.recv(); r.Str != "OK" {
		t.Fatalf("MULTI: %v", r)
	}
	if r := c.recv(); r.Str != "QUEUED" {
		t.Fatalf("queue 1: %v", r)
	}
	if r := c.recv(); r.Str != "QUEUED" {
		t.Fatalf("queue 2: %v", r)
	}
	if r := c.recv(); r.Kind != ArrayReply || len(r.Elems) != 2 {
		t.Fatalf("EXEC: %v", r)
	}
	if r := c.recv(); r.Str != "1" {
		t.Fatalf("GET after EXEC: %v", r)
	}
}

// sameShardKeys returns n distinct keys with the given prefix that all
// hash to one shard (trivially true for an unsharded store).
func sameShardKeys(store kvstore.Store, prefix string, n int) []string {
	sh, ok := store.(*kvstore.Sharded)
	if !ok {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return keys
	}
	want := -1
	var keys []string
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("%s%d", prefix, i)
		if want < 0 {
			want = sh.ShardFor(k)
		}
		if sh.ShardFor(k) == want {
			keys = append(keys, k)
		}
	}
	return keys
}
