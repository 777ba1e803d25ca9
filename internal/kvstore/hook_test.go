package kvstore

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// hookRecorder collects CommitOps; hooks may fire concurrently from
// different slots, so it locks.
type hookRecorder struct {
	mu  sync.Mutex
	ops []CommitOp
}

func (r *hookRecorder) hook(op CommitOp) {
	r.mu.Lock()
	r.ops = append(r.ops, op)
	r.mu.Unlock()
}

func (r *hookRecorder) snapshot() []CommitOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]CommitOp(nil), r.ops...)
}

func TestCommitHookAllBuilds(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, 4, 64)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rec := &hookRecorder{}
			if !SetStoreCommitHook(s, rec.hook) {
				t.Fatalf("%s does not support commit hooks", name)
			}
			sess := s.Session()
			defer sess.Close()

			sess.Set("a", "1")
			sess.Set("a", "2")
			sess.Set("b", "x")
			if sess.Remove("missing") {
				t.Fatal("Remove(missing) returned true")
			}
			if !sess.Remove("a") {
				t.Fatal("Remove(a) returned false")
			}

			ops := rec.snapshot()
			// 3 sets + 1 real delete; the no-op Remove is not observed.
			if len(ops) != 4 {
				t.Fatalf("hook fired %d times, want 4: %+v", len(ops), ops)
			}
			// Per-key hook order equals commit order with strictly
			// increasing timestamps.
			lastTS := map[string]uint64{}
			for _, op := range ops {
				if op.Shard != 0 {
					t.Fatalf("unsharded store stamped shard %d", op.Shard)
				}
				if op.TS <= lastTS[op.Key] {
					t.Fatalf("key %s: ts %d not above %d", op.Key, op.TS, lastTS[op.Key])
				}
				lastTS[op.Key] = op.TS
			}
			if ops[0].Key != "a" || ops[0].Value != "1" || ops[0].Del {
				t.Fatalf("first op: %+v", ops[0])
			}
			last := ops[3]
			if !last.Del || last.Key != "a" || last.Value != "" {
				t.Fatalf("delete op: %+v", last)
			}
		})
	}
}

func TestCommitHookConcurrentPerKeyOrder(t *testing.T) {
	// Every build runs the hook inside the commit's writer locks, so even
	// under contention per-key hook order equals commit order.
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, 4, 64)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var mu sync.Mutex
			lastTS := map[string]uint64{}
			violations := 0
			SetStoreCommitHook(s, func(op CommitOp) {
				mu.Lock()
				if op.TS <= lastTS[op.Key] {
					violations++
				}
				lastTS[op.Key] = op.TS
				mu.Unlock()
			})
			const writers, per = 4, 200
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					sess := s.Session()
					defer sess.Close()
					for i := 0; i < per; i++ {
						sess.Set(fmt.Sprintf("k%d", i%8), fmt.Sprintf("w%d-%d", w, i))
					}
				}(w)
			}
			wg.Wait()
			if violations != 0 {
				t.Fatalf("%d per-key timestamp order violations", violations)
			}
		})
	}
}

func TestShardedHookStampsShard(t *testing.T) {
	s, err := NewSharded("mvrlu-kv", 4, 8, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sh, ok := s.(*Sharded)
	if !ok {
		t.Fatalf("NewSharded(4) returned %T", s)
	}
	rec := &hookRecorder{}
	if !SetStoreCommitHook(s, rec.hook) {
		t.Fatal("sharded store does not support commit hooks")
	}
	sess := s.Session()
	defer sess.Close()
	for i := 0; i < 64; i++ {
		sess.Set(fmt.Sprintf("key%03d", i), "v")
	}
	ops := rec.snapshot()
	if len(ops) != 64 {
		t.Fatalf("hook fired %d times, want 64", len(ops))
	}
	seen := map[uint32]int{}
	for _, op := range ops {
		if int(op.Shard) != sh.ShardFor(op.Key) {
			t.Fatalf("key %s stamped shard %d, routes to %d", op.Key, op.Shard, sh.ShardFor(op.Key))
		}
		seen[op.Shard]++
	}
	if len(seen) < 2 {
		t.Fatalf("64 keys landed on %d shard(s); routing suspiciously degenerate", len(seen))
	}
}

// TestHookBeforeNextCommit pins the rule behind per-key log order on
// every build: a writer's hook returns before the next commit to the
// same key. Writer A's hook waits for writer B's hook of the same key,
// and B starts only once A is inside its hook. B cannot commit until A's
// hook returns, so A's wait always expires; the 50 ms is real time
// because there is nothing to wait on but the absence of B's hook. A
// build whose hooks ran after its writer locks would let B commit and
// log first.
func TestHookBeforeNextCommit(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s, err := New(name, 4, 64)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			aIn, bLogged := make(chan struct{}), make(chan struct{})
			rec := &hookRecorder{}
			SetStoreCommitHook(s, func(op CommitOp) {
				if op.Value == "a" {
					close(aIn)
					select {
					case <-bLogged:
					case <-time.After(50 * time.Millisecond):
					}
					rec.hook(op)
					return
				}
				rec.hook(op)
				close(bLogged)
			})
			sa, sb := s.Session(), s.Session()
			defer sa.Close()
			defer sb.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				<-aIn
				sb.Set("k", "b")
			}()
			sa.Set("k", "a")
			<-done
			ops := rec.snapshot()
			if len(ops) != 2 || ops[0].Value != "a" || ops[1].Value != "b" || ops[0].TS >= ops[1].TS {
				t.Fatalf("hooks saw %+v, want k=a then k=b with a rising ts", ops)
			}
		})
	}
}

func TestWaitVisibleTerminates(t *testing.T) {
	s, err := New("mvrlu-kv", 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var lastTS uint64
	var mu sync.Mutex
	SetStoreCommitHook(s, func(op CommitOp) {
		mu.Lock()
		if op.TS > lastTS {
			lastTS = op.TS
		}
		mu.Unlock()
	})
	sess := s.Session()
	for i := 0; i < 100; i++ {
		sess.Set(fmt.Sprintf("k%d", i), "v")
	}
	sess.Close()
	mu.Lock()
	min := map[uint32]uint64{0: lastTS}
	mu.Unlock()
	// MV-RLU commit timestamps sit up to the ORDO boundary in the clock's
	// future; WaitVisible must wait the clock past them — and return.
	WaitVisible(s, min)
	// No-capability and missing-shard entries are ignored.
	WaitVisible(s, map[uint32]uint64{7: 1})
	v, _ := New("vanilla", 4, 64)
	defer v.Close()
	WaitVisible(v, map[uint32]uint64{0: 1 << 60})
}
