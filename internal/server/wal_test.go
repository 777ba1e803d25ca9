package server

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"mvrlu/internal/failpoint"
	"mvrlu/internal/kvstore"
	"mvrlu/internal/wal"
)

// openWAL opens a WAL in a temp dir and wires it to the store the way
// cmd/mvkvd does: commit hook appending every committed write.
func openWAL(t *testing.T, dir string, st kvstore.Store) *wal.Log {
	t.Helper()
	wlog, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		sess := st.Session()
		rec.Apply(sess)
		sess.Close()
	}
	if !kvstore.SetStoreCommitHook(st, func(op kvstore.CommitOp) {
		_ = wlog.Append(wal.Record{
			TS: op.TS, Shard: op.Shard, Del: op.Del,
			Key: op.Key, Value: op.Value,
		})
	}) {
		t.Fatalf("store %s does not support commit hooks", st.Name())
	}
	return wlog
}

// storeDump is the installer's dump the way cmd/mvkvd builds it: wait
// out the visibility window, then walk one snapshot of the store.
func storeDump(st kvstore.Store) wal.DumpFunc {
	return func(minTS map[uint32]uint64, emit func(key, value string) error) (map[uint32]uint64, error) {
		kvstore.WaitVisible(st, minTS)
		sess := st.Session()
		defer sess.Close()
		var eerr error
		sess.ForEach(func(k, v string) bool {
			eerr = emit(k, v)
			return eerr == nil
		})
		return nil, eerr
	}
}

// contents is every pair in st, read in one snapshot.
func contents(st kvstore.Store) map[string]string {
	sess := st.Session()
	defer sess.Close()
	m := map[string]string{}
	sess.ForEach(func(k, v string) bool { m[k] = v; return true })
	return m
}

// recoverInto replays a WAL directory into a fresh store build.
func recoverInto(t *testing.T, dir string, st kvstore.Store) {
	t.Helper()
	wlog, rec, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer wlog.Close()
	sess := st.Session()
	defer sess.Close()
	rec.Apply(sess)
}

// TestWALAckedWritesSurvive: every acknowledged write is durable before
// its ack leaves, at every shard count, and recovery is shard-count
// independent — replay routes each key through a composite session, so
// the log of an n-shard server restores into a store partitioned
// differently.
func TestWALAckedWritesSurvive(t *testing.T) {
	for _, tc := range []struct{ shards, recoverShards int }{{1, 1}, {4, 2}} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			dir := t.TempDir()
			store := newKVStore(t, tc.shards)
			defer store.Close()
			wlog := openWAL(t, dir, store)
			srv, errc := startServer(t, store, Config{Handles: 2 * tc.shards, WAL: wlog})
			c := dialT(t, srv)

			want := map[string]string{}
			for i := 0; i < 80; i++ {
				k, v := fmt.Sprintf("k%03d", i), fmt.Sprintf("v%d", i)
				if r := c.cmd("SET", k, v); r.Str != "OK" {
					t.Fatalf("SET: %v", r)
				}
				want[k] = v
			}
			if r := c.cmd("MSET", "ma", "1", "mb", "2"); r.Str != "OK" {
				t.Fatalf("MSET: %v", r)
			}
			want["ma"], want["mb"] = "1", "2"
			if r := c.cmd("DEL", "k000"); r.Int != 1 {
				t.Fatalf("DEL: %v", r)
			}
			delete(want, "k000")

			// Every reply above is an ack: the gate ran SyncBarrier before
			// the bytes left. Tear the server down without any graceful log
			// flush — durability must already hold.
			srv.Shutdown()
			<-errc
			if err := wlog.Close(); err != nil {
				t.Fatal(err)
			}

			fresh := newKVStore(t, tc.recoverShards)
			defer fresh.Close()
			recoverInto(t, dir, fresh)
			sess := fresh.Session()
			defer sess.Close()
			for k, v := range want {
				if got, ok := sess.Get(k); !ok || got != v {
					t.Fatalf("recovered %s = %q,%v want %q", k, got, ok, v)
				}
			}
			if _, ok := sess.Get("k000"); ok {
				t.Fatal("deleted key resurrected")
			}
		})
	}
}

// TestWALDegradedMode crashes the logger under a client and asserts both
// halves of the contract at every shard count: the in-flight write is
// never acked (its connection dies instead), and afterwards the server
// refuses writes at plan time — before any shard executes — with a WAL
// error while reads keep working.
func TestWALDegradedMode(t *testing.T) {
	forShardCounts(t, func(t *testing.T, shards int) {
		defer failpoint.Reset()
		dir := t.TempDir()
		store := newKVStore(t, shards)
		defer store.Close()
		wlog := openWAL(t, dir, store)
		defer wlog.Close()
		srv, _ := startServer(t, store, Config{Handles: 2 * shards, WAL: wlog})
		defer srv.Shutdown()

		c := dialT(t, srv)
		if r := c.cmd("SET", "before", "1"); r.Str != "OK" {
			t.Fatalf("SET before crash: %v", r)
		}

		if err := failpoint.Enable("wal-before-fsync=panic", 1); err != nil {
			t.Fatal(err)
		}
		c.send("SET", "doomed", "x")
		c.flush()
		// The logger died under this batch: the ack gate's barrier fails,
		// the server aborts the flush and closes the connection. No +OK
		// may arrive.
		if rep, err := ReadReply(c.br); err == nil {
			t.Fatalf("reply escaped for an unsynced write: %v", rep)
		}
		failpoint.Reset()
		if err := wlog.Err(); !errors.Is(err, wal.ErrInjectedCrash) {
			t.Fatalf("wal error = %v, want injected crash", err)
		}

		// Degraded mode on a fresh connection: writes refused, reads served.
		c2 := dialT(t, srv)
		for _, args := range [][]string{
			{"SET", "k", "v"},
			{"DEL", "before"},
			{"MSET", "a", "1", "b", "2"},
		} {
			r := c2.cmd(args...)
			if !r.IsError() || !strings.Contains(r.Str, "wal") {
				t.Fatalf("%v in degraded mode: %v %q", args, r.Kind, r.Str)
			}
		}
		if r := c2.cmd("GET", "before"); r.Str != "1" {
			t.Fatalf("GET in degraded mode: %v", r)
		}
		if r := c2.cmd("PING"); r.Str != "PONG" {
			t.Fatalf("PING in degraded mode: %v", r)
		}
		// INFO surfaces the degradation for operators.
		info := c2.cmd("INFO")
		if !strings.Contains(info.Str, "wal_degraded:1") {
			t.Fatal("INFO does not report wal_degraded:1")
		}
	})
}

// TestCheckpointRacesWriters: a commit hook blocked on WAL backpressure
// must hold no lock the installer's dump needs. A 2 KiB live budget
// parks appenders on the installer's hard-live block over and over while
// the installer checkpoints every millisecond; on every build the
// writers must finish, and the log must recover to the live store.
func TestCheckpointRacesWriters(t *testing.T) {
	for _, name := range kvstore.Names() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st := newStore(t, name, 1)
			wlog, _, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone, MaxLiveBytes: 2 << 10})
			if err != nil {
				t.Fatal(err)
			}
			kvstore.SetStoreCommitHook(st, func(op kvstore.CommitOp) {
				_ = wlog.Append(wal.Record{TS: op.TS, Shard: op.Shard, Del: op.Del, Key: op.Key, Value: op.Value})
			})
			wlog.StartInstaller(time.Millisecond, storeDump(st), func(err error) { t.Error(err) })

			const writers, per = 4, 3000
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sess := st.Session()
					defer sess.Close()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < per; i++ {
						k := fmt.Sprintf("k%02d", rng.Intn(16))
						if rng.Intn(4) == 0 {
							sess.Remove(k)
						} else {
							sess.Set(k, fmt.Sprintf("w%d-%d", w, i))
						}
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				// Closing the log or the store would block on the wedge too.
				t.Fatal("writers wedged against the snapshot installer")
			}
			if err := wlog.Close(); err != nil {
				t.Fatal(err)
			}
			fresh := newStore(t, name, 1)
			defer fresh.Close()
			recoverInto(t, dir, fresh)
			if got, want := contents(fresh), contents(st); !maps.Equal(got, want) {
				t.Fatalf("recovered %v, live store %v", got, want)
			}
			st.Close()
		})
	}
}
